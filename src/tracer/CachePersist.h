//===- CachePersist.h - Snapshot framing for cache persistence -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk snapshot format underneath the persistent forward-run cache
/// tier: a versioned, checksummed, little-endian record stream with atomic
/// (temp-file + rename) writes and bounds-checked, structured-error reads.
///
/// Layout of every snapshot file (spill entries and whole-program
/// snapshots both use it):
///
///   bytes 0..7    magic "OPTABSNP"
///   bytes 8..11   format version (u32 LE)
///   bytes 12..N-9 payload records (written through SnapshotWriter)
///   bytes N-8..N  FNV-1a 64 checksum of bytes [0, N-8) (u64 LE)
///
/// The contract the warm-restart path depends on:
///
///  * Writes are atomic per file. SnapshotWriter buffers the whole
///    payload in memory and commit() writes it to `<path>.tmp.<pid>`
///    before rename(2)-ing it into place, so a reader never observes a
///    half-written snapshot under the final name and a crash mid-persist
///    leaves at worst a stale temp file, never a corrupt snapshot.
///
///  * Reads never trust the file. open() verifies magic, version, and the
///    trailer checksum before any record is parsed; every primitive read
///    is bounds-checked; and the first failure latches a structured error
///    naming the file and byte offset ("snapshot <path>: truncated u32 at
///    offset 17"). Callers skip the file with that note - a damaged
///    snapshot degrades a warm start into a cold one, it is never served.
///
/// The tracer library stays client-free: this header knows nothing about
/// EscState/AbsState. Client state codecs live in the client table
/// (service/Clients.h) and plug into the RunSink/RunSource adapters
/// below, which bridge SnapshotWriter/Reader to the ForwardAnalysis
/// saveTo()/loadFrom() hooks.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TRACER_CACHEPERSIST_H
#define OPTABS_TRACER_CACHEPERSIST_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace optabs {
namespace tracer {

/// Snapshot format version. Bump on any layout change; readers reject
/// other versions with a structured note (no cross-version migration:
/// a version-skewed snapshot just means a cold start). Version 2 dropped
/// the learned viable CNF from each stored verdict record.
inline constexpr uint32_t SnapshotFormatVersion = 2;

/// FNV-1a 64 over \p Len bytes, continuing from \p Seed (pass the default
/// to start a fresh hash). The snapshot trailer checksum and spill-file
/// key hashes both use it - deterministic across platforms by definition.
uint64_t snapshotHash(const void *Data, size_t Len,
                      uint64_t Seed = 0xcbf29ce484222325ULL);

/// Buffers one snapshot payload and commits it atomically.
class SnapshotWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u32(uint32_t V);
  void u64(uint64_t V);
  /// Length-prefixed (u32) byte string.
  void str(const std::string &S);
  void bytes(const std::vector<uint8_t> &B);
  /// Length-prefixed (u32) bit vector, one byte per bit (the parameter
  /// vectors this persists are tens of bits; simplicity over packing).
  void bits(const std::vector<bool> &B);

  size_t payloadBytes() const { return Buf.size(); }

  /// Writes header + payload + checksum trailer to `<Path>.tmp.<pid>` and
  /// renames it over \p Path. Returns false (with \p Err set) on any I/O
  /// failure; the temp file is removed on failure, so a failed commit
  /// never leaves a partial file under either name.
  bool commit(const std::string &Path, std::string &Err) const;

private:
  std::string Buf;
};

/// Reads one snapshot file: whole-file validation up front, then
/// bounds-checked record reads with structured failure notes.
class SnapshotReader {
public:
  /// Reads and validates \p P (magic, version, trailer checksum). On
  /// failure returns false with error() set; no record API may be used.
  bool open(const std::string &P);

  bool u8(uint8_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool str(std::string &S);
  bool bytes(std::vector<uint8_t> &B);
  bool bits(std::vector<bool> &B);

  /// True when every payload byte has been consumed (trailing garbage in
  /// a checksummed file still indicates a writer bug; callers may check).
  bool atEnd() const { return Pos == End; }
  /// Unread payload bytes. Callers clamp claimed element counts against
  /// this before reserving (each element costs at least one byte, so a
  /// count above remaining() is provably truncated) - a checksummed but
  /// crafted file must fail structurally, not via a giant allocation.
  size_t remaining() const { return Failed ? 0 : End - Pos; }
  /// Offset of the next unread byte, for error messages.
  size_t offset() const { return Pos; }
  bool failed() const { return Failed; }
  const std::string &error() const { return Err; }
  /// Latches a structured error ("snapshot <path>: <what> at offset N").
  /// The first failure wins; every later read returns false.
  void fail(const std::string &What);

private:
  bool take(void *Out, size_t N, const char *What);

  std::string Path;
  std::string Buf;
  size_t Pos = 0;
  size_t End = 0;
  bool Failed = false;
  std::string Err;
};

/// Adapts a SnapshotWriter (plus a client state codec) to the sink
/// interface ForwardAnalysis::saveTo() expects. \p Codec must provide
/// `void save(SnapshotWriter &, const State &) const`.
template <typename CodecT> struct RunSink {
  SnapshotWriter &W;
  const CodecT &Codec;
  void u32(uint32_t V) { W.u32(V); }
  void u64(uint64_t V) { W.u64(V); }
  template <typename StateT> void state(const StateT &S) { Codec.save(W, S); }
};

/// Adapts a SnapshotReader (plus a client state codec) to the source
/// interface ForwardAnalysis::loadFrom() expects. \p Codec must provide
/// `bool load(SnapshotReader &, State &) const`.
template <typename CodecT> struct RunSource {
  SnapshotReader &R;
  const CodecT &Codec;
  bool u32(uint32_t &V) { return R.u32(V); }
  bool u64(uint64_t &V) { return R.u64(V); }
  template <typename StateT> bool state(StateT &S) { return Codec.load(R, S); }
  void fail(const std::string &What) { R.fail(What); }
};

} // namespace tracer
} // namespace optabs

#endif // OPTABS_TRACER_CACHEPERSIST_H
