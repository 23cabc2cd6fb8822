//===- WpTable.h - Shared per-analysis wp table ----------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backward meta-analysis (§4, Figure 7) only ever asks for the weakest
/// precondition of one literal across one command, and that is a pure
/// function of (analysis, command, literal): Client::wpAtom is const and
/// reads nothing but the analysis instance (a type-state property and its
/// tracked site are part of the instance). So each analysis owns one
/// WpTable, and every BackwardMetaAnalysis over it - each worker of each
/// driver run, each service batch on a warm analysis - reads and fills that
/// one table instead of rebuilding the same wps into a private memo.
///
/// Layout. A directory holds one block pointer per command of the
/// analysis's program. A block is a small open-addressed array of 8-byte
/// words: the literal in the high half, the storage index + 1 of its wp in
/// the low half, 0 for an empty slot. The wp formulas themselves live in
/// chunked storage whose chunks never move. Only state literals are filed:
/// the wp of a parameter literal is the literal itself, and the backward
/// step never asks for it. Even so, about nine in ten entries are
/// identities, wp(L) = {L} (92% after driver runs over the paper suite,
/// both clients; 99% when parameter literals were filed too, and they
/// made up six in seven entries); every wp that is a single literal {L'}
/// points at the one stored singleton of L', so an identity costs its word
/// and nothing else, and a hit is one probe either way.
///
/// Concurrency. Lookups go through a Reader and may run on any number of
/// threads at once. A hit takes no lock and allocates nothing: the
/// directory, blocks, words and storage chunks are published with release
/// stores and read with acquire loads. A miss builds the wp outside any
/// lock, then inserts it under the table's mutex, probing again first so
/// that a racing builder's entry wins and the duplicate is dropped. A block
/// or directory that fills up is copied into one twice its size. The old
/// copy is retired, not freed, because a reader may still be probing it;
/// retired copies are freed when the last Reader goes away (a reader
/// registered after a block was replaced can only reach its successor).
/// Stored formulas never move, so a returned reference stays valid until
/// clear().
///
/// Release. clear() frees everything. It must not run while a Reader
/// exists; the analysis service calls it from its `cache` op's evict and
/// spill actions, between batches.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_META_WPTABLE_H
#define OPTABS_META_WPTABLE_H

#include "formula/Dnf.h"
#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace optabs {
namespace meta {

class WpTable {
public:
  /// \p NumCommands sizes the directory, allocated on the first insert; a
  /// larger command index grows it.
  explicit WpTable(size_t NumCommands = 0) : DirHint(NumCommands) {}
  WpTable(const WpTable &) = delete;
  WpTable &operator=(const WpTable &) = delete;
  ~WpTable() { clear(); }

  /// A registered user of the table; every lookup goes through one. Each
  /// BackwardMetaAnalysis holds one for its lifetime.
  class Reader {
  public:
    explicit Reader(WpTable &T) : T(T) {
      std::lock_guard<std::mutex> Lock(T.Mu);
      ++T.Readers;
    }
    ~Reader() {
      std::lock_guard<std::mutex> Lock(T.Mu);
      if (--T.Readers == 0)
        T.freeRetired();
    }
    Reader(const Reader &) = delete;
    Reader &operator=(const Reader &) = delete;

    /// The wp of \p L across command \p Cmd. On a miss, \p Build()
    /// computes it (no lock held) and the result is stored; the returned
    /// reference stays valid until clear().
    template <typename BuildFn>
    const formula::Dnf &lookup(uint32_t Cmd, formula::Lit L,
                               BuildFn &&Build) {
      if (const formula::Dnf *Hit = find(Cmd, L))
        return *Hit;
      if (support::metricsEnabled()) {
        static auto &Misses = support::MetricRegistry::global().counter(
            "optabs_wp_table_misses_total");
        Misses.add(1);
      }
      return T.insert(Cmd, L, Build());
    }

    /// The stored wp of \p L across \p Cmd, or null. Lock- and
    /// allocation-free.
    const formula::Dnf *find(uint32_t Cmd, formula::Lit L) const {
      const Dir *D = T.Directory.load(std::memory_order_acquire);
      if (!D || Cmd >= D->Size)
        return nullptr;
      const Block *B = D->slots()[Cmd].load(std::memory_order_acquire);
      if (!B)
        return nullptr;
      uint64_t W = findWord(*B, L.raw());
      return W ? &T.dnfAt(static_cast<uint32_t>(W) - 1) : nullptr;
    }

  private:
    WpTable &T;
  };

  /// Calls \p Fn(Cmd, L, Wp) on every entry. Takes the insert lock; for
  /// tests and diagnostics, not for the backward path.
  template <typename FnT> void forEach(FnT Fn) const {
    std::lock_guard<std::mutex> Lock(Mu);
    const Dir *D = Directory.load(std::memory_order_relaxed);
    for (uint64_t Cmd = 0; D && Cmd < D->Size; ++Cmd) {
      const Block *B = D->slots()[Cmd].load(std::memory_order_relaxed);
      for (size_t I = 0; B && I < (size_t(1) << B->Shift); ++I) {
        uint64_t W = B->words()[I].load(std::memory_order_relaxed);
        if (W == 0)
          continue;
        uint32_t Raw = static_cast<uint32_t>(W >> 32);
        Fn(static_cast<uint32_t>(Cmd),
           Raw & 1 ? formula::Lit::neg(Raw >> 1) : formula::Lit::pos(Raw >> 1),
           dnfAt(static_cast<uint32_t>(W) - 1));
      }
    }
  }

  /// Frees every entry. No Reader may exist; see the file comment.
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    assert(Readers == 0 && "WpTable::clear() with a live Reader");
    if (Dir *D = Directory.load(std::memory_order_relaxed)) {
      for (size_t I = 0; I < D->Size; ++I)
        ::operator delete(D->slots()[I].load(std::memory_order_relaxed));
      ::operator delete(D);
      Directory.store(nullptr, std::memory_order_relaxed);
    }
    ::operator delete(Singles);
    Singles = nullptr;
    freeRetired();
    for (std::atomic<formula::Dnf *> &C : Chunks)
      delete[] C.exchange(nullptr, std::memory_order_relaxed);
    NumDnfs = 0;
    account(-static_cast<int64_t>(Bytes.load(std::memory_order_relaxed)));
  }

  /// Approximate bytes this table holds: directory, blocks (retired ones
  /// included), storage chunks and the stored formulas' cube buffers.
  size_t bytes() const { return Bytes.load(std::memory_order_relaxed); }

  /// bytes() summed over every live table in the process; the
  /// optabs_wp_table_bytes gauge mirrors it while metrics are on.
  static int64_t totalBytes() {
    return TotalBytes.load(std::memory_order_relaxed);
  }

private:
  /// A power-of-two array of words, allocated with its header.
  struct Block {
    uint32_t Shift; ///< capacity is 1 << Shift
    uint32_t Used;  ///< filled words; touched under Mu only
    std::atomic<uint64_t> *words() {
      return reinterpret_cast<std::atomic<uint64_t> *>(this + 1);
    }
    const std::atomic<uint64_t> *words() const {
      return reinterpret_cast<const std::atomic<uint64_t> *>(this + 1);
    }
  };
  /// One block pointer per command, allocated with its header.
  struct Dir {
    uint64_t Size;
    std::atomic<Block *> *slots() {
      return reinterpret_cast<std::atomic<Block *> *>(this + 1);
    }
    const std::atomic<Block *> *slots() const {
      return reinterpret_cast<const std::atomic<Block *> *>(this + 1);
    }
  };
  static_assert(sizeof(Block) == 8 && sizeof(Dir) == 8);

  /// Storage chunk K holds 16 << K formulas.
  static constexpr unsigned FirstChunkBits = 4;
  static constexpr unsigned NumChunks = 27;

  static size_t blockBytes(uint32_t Shift) {
    return sizeof(Block) + (size_t(1) << Shift) * sizeof(std::atomic<uint64_t>);
  }

  static uint32_t home(uint32_t Raw, uint32_t Shift) {
    return (Raw * 0x9e3779b1u) >> (32 - Shift);
  }

  /// The word filed under literal \p Raw, or 0. Terminates because a block
  /// is never full.
  static uint64_t findWord(const Block &B, uint32_t Raw) {
    const std::atomic<uint64_t> *Words = B.words();
    const uint32_t Mask = (1u << B.Shift) - 1;
    for (uint32_t I = home(Raw, B.Shift);; I = (I + 1) & Mask) {
      uint64_t W = Words[I].load(std::memory_order_acquire);
      if (W == 0 || (W >> 32) == Raw)
        return W;
    }
  }

  /// (chunk, offset in it) of storage index \p Index.
  static std::pair<unsigned, uint32_t> locate(uint32_t Index) {
    unsigned Chunk = std::bit_width((Index >> FirstChunkBits) + 1) - 1;
    return {Chunk, Index - (((1u << Chunk) - 1) << FirstChunkBits)};
  }

  const formula::Dnf &dnfAt(uint32_t Index) const {
    auto [Chunk, Off] = locate(Index);
    return Chunks[Chunk].load(std::memory_order_acquire)[Off];
  }

  /// Files \p Wp as the wp of \p L across \p Cmd, unless a racing insert
  /// got there first.
  const formula::Dnf &insert(uint32_t Cmd, formula::Lit L, formula::Dnf Wp) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::atomic<Block *> &Slot = slotFor(Cmd);
    if (const Block *B = Slot.load(std::memory_order_relaxed))
      if (uint64_t W = findWord(*B, L.raw()))
        return dnfAt(static_cast<uint32_t>(W) - 1);
    uint32_t Index;
    if (Wp.size() == 1 && Wp.cubes()[0].size() == 1) {
      // A single literal - for an identity, L itself: share its singleton.
      uint32_t Single = Wp.cubes()[0].literals()[0].raw();
      uint64_t W = Singles ? findWord(*Singles, Single) : 0;
      if (W) {
        Index = static_cast<uint32_t>(W) - 1;
      } else {
        Index = store(std::move(Wp));
        Singles = putWord(Singles, Single, Index, /*Shared=*/false);
      }
    } else {
      Index = store(std::move(Wp));
    }
    Block *B = putWord(Slot.load(std::memory_order_relaxed), L.raw(), Index,
                       /*Shared=*/true);
    Slot.store(B, std::memory_order_release);
    return dnfAt(Index);
  }

  /// Under Mu: the directory slot of \p Cmd, growing the directory if
  /// needed.
  std::atomic<Block *> &slotFor(uint32_t Cmd) {
    Dir *D = Directory.load(std::memory_order_relaxed);
    if (!D || Cmd >= D->Size) {
      uint64_t Size = std::max<uint64_t>(
          {uint64_t(Cmd) + 1, DirHint, D ? 2 * D->Size : 0});
      size_t Alloc = sizeof(Dir) + Size * sizeof(std::atomic<Block *>);
      Dir *N = new (::operator new(Alloc)) Dir{Size};
      for (uint64_t I = 0; I < Size; ++I)
        new (&N->slots()[I]) std::atomic<Block *>(
            D && I < D->Size ? D->slots()[I].load(std::memory_order_relaxed)
                             : nullptr);
      account(static_cast<int64_t>(Alloc));
      Directory.store(N, std::memory_order_release);
      if (D)
        Retired.push_back(
            {D, sizeof(Dir) + D->Size * sizeof(std::atomic<Block *>)});
      D = N;
    }
    return D->slots()[Cmd];
  }

  /// Under Mu: files (\p Raw -> \p Index) in \p B and returns the block
  /// that now holds it - \p B, or a copy twice its size when \p B was
  /// absent or more than 7/8 full. A replaced block that readers may still
  /// probe (\p Shared) is retired, otherwise freed. Every word written
  /// here is published by the caller's release store of the returned
  /// block, or by the release store of the word itself.
  Block *putWord(Block *B, uint32_t Raw, uint32_t Index, bool Shared) {
    if (!B || 8 * (size_t(B->Used) + 1) > (size_t(7) << B->Shift)) {
      uint32_t Shift = B ? B->Shift + 1 : 2;
      Block *N = new (::operator new(blockBytes(Shift))) Block{Shift, 0};
      for (size_t I = 0; I < (size_t(1) << Shift); ++I)
        new (&N->words()[I]) std::atomic<uint64_t>(0);
      account(static_cast<int64_t>(blockBytes(Shift)));
      if (B) {
        for (size_t I = 0; I < (size_t(1) << B->Shift); ++I)
          if (uint64_t W = B->words()[I].load(std::memory_order_relaxed))
            place(*N, W);
        if (Shared) {
          Retired.push_back({B, blockBytes(B->Shift)});
        } else {
          account(-static_cast<int64_t>(blockBytes(B->Shift)));
          ::operator delete(B);
        }
      }
      B = N;
    }
    place(*B, (uint64_t(Raw) << 32) | (uint64_t(Index) + 1));
    return B;
  }

  static void place(Block &B, uint64_t W) {
    const uint32_t Mask = (1u << B.Shift) - 1;
    uint32_t I = home(static_cast<uint32_t>(W >> 32), B.Shift);
    while (B.words()[I].load(std::memory_order_relaxed) != 0)
      I = (I + 1) & Mask;
    B.words()[I].store(W, std::memory_order_release);
    ++B.Used;
  }

  /// Under Mu: moves \p Wp into storage, trimmed to its size, and returns
  /// its index.
  uint32_t store(formula::Dnf Wp) {
    assert(NumDnfs < ((1u << NumChunks) - 1) << FirstChunkBits);
    auto [Chunk, Off] = locate(NumDnfs);
    formula::Dnf *C = Chunks[Chunk].load(std::memory_order_relaxed);
    if (!C) {
      size_t N = size_t(1) << (Chunk + FirstChunkBits);
      C = new formula::Dnf[N];
      account(static_cast<int64_t>(N * sizeof(formula::Dnf)));
      Chunks[Chunk].store(C, std::memory_order_release);
    }
    std::vector<formula::Cube> Cubes = Wp.takeCubes();
    Cubes.shrink_to_fit();
    size_t Heap = Cubes.capacity() * sizeof(formula::Cube);
    for (const formula::Cube &Cube : Cubes)
      if (Cube.size() > formula::LitVec::InlineCap)
        Heap += Cube.size() * sizeof(formula::Lit);
    account(static_cast<int64_t>(Heap));
    C[Off] = formula::Dnf::fromCubes(std::move(Cubes));
    return NumDnfs++;
  }

  /// Under Mu, with no Reader left.
  void freeRetired() {
    for (auto [Mem, Size] : Retired) {
      account(-static_cast<int64_t>(Size));
      ::operator delete(Mem);
    }
    Retired = std::vector<std::pair<void *, size_t>>();
  }

  void account(int64_t Delta) {
    Bytes.fetch_add(static_cast<size_t>(Delta), std::memory_order_relaxed);
    int64_t Total =
        TotalBytes.fetch_add(Delta, std::memory_order_relaxed) + Delta;
    if (support::metricsEnabled()) {
      static auto &Gauge =
          support::MetricRegistry::global().gauge("optabs_wp_table_bytes");
      Gauge.set(Total);
    }
  }

  const uint64_t DirHint;
  /// Read without a lock; written under Mu.
  std::atomic<Dir *> Directory{nullptr};
  std::atomic<formula::Dnf *> Chunks[NumChunks] = {};

  /// Guards every insert, the fields below, and the blocks' Used counts.
  mutable std::mutex Mu;
  /// Literal -> index of its stored singleton.
  Block *Singles = nullptr;
  /// Replaced blocks and directories a Reader may still probe, with their
  /// sizes.
  std::vector<std::pair<void *, size_t>> Retired;
  unsigned Readers = 0;
  uint32_t NumDnfs = 0;

  std::atomic<size_t> Bytes{0};
  static inline std::atomic<int64_t> TotalBytes{0};
};

} // namespace meta
} // namespace optabs

#endif // OPTABS_META_WPTABLE_H
