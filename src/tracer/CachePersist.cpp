//===- CachePersist.cpp - Snapshot framing implementation -----------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "tracer/CachePersist.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unistd.h>

namespace optabs {
namespace tracer {

namespace {

constexpr char SnapshotMagic[8] = {'O', 'P', 'T', 'A', 'B', 'S', 'N', 'P'};
constexpr size_t HeaderBytes = sizeof(SnapshotMagic) + sizeof(uint32_t);
constexpr size_t TrailerBytes = sizeof(uint64_t);

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

} // namespace

uint64_t snapshotHash(const void *Data, size_t Len, uint64_t Seed) {
  uint64_t H = Seed;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL;
  return H;
}

void SnapshotWriter::u32(uint32_t V) { putU32(Buf, V); }
void SnapshotWriter::u64(uint64_t V) { putU64(Buf, V); }

void SnapshotWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.append(S);
}

void SnapshotWriter::bits(const std::vector<bool> &B) {
  u32(static_cast<uint32_t>(B.size()));
  for (bool Bit : B)
    Buf.push_back(Bit ? 1 : 0);
}

bool SnapshotWriter::commit(const std::string &Path, std::string &Err) const {
  std::string File(SnapshotMagic, sizeof(SnapshotMagic));
  putU32(File, SnapshotFormatVersion);
  File.append(Buf);
  putU64(File, snapshotHash(File.data(), File.size()));

  // Atomic write: the full image lands under a temp name first, so a
  // crash between here and the rename can never leave a short file under
  // the final name for the next warm start to trip over.
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      Err = "snapshot " + Path + ": cannot open temp file " + Tmp;
      return false;
    }
    Out.write(File.data(), static_cast<std::streamsize>(File.size()));
    Out.flush();
    if (!Out) {
      Err = "snapshot " + Path + ": short write to temp file " + Tmp;
      Out.close();
      std::remove(Tmp.c_str());
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Err = "snapshot " + Path + ": rename from temp file failed";
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

bool SnapshotReader::open(const std::string &P) {
  Path = P;
  std::ifstream In(P, std::ios::binary);
  if (!In) {
    Failed = true;
    Err = "snapshot " + Path + ": cannot open file";
    return false;
  }
  Buf.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  if (Buf.size() < HeaderBytes + TrailerBytes) {
    Failed = true;
    Err = "snapshot " + Path + ": truncated header (" +
          std::to_string(Buf.size()) + " bytes)";
    return false;
  }
  if (std::memcmp(Buf.data(), SnapshotMagic, sizeof(SnapshotMagic)) != 0) {
    Failed = true;
    Err = "snapshot " + Path + ": bad magic";
    return false;
  }
  uint64_t Stored = 0;
  for (int I = 0; I < 8; ++I)
    Stored |= static_cast<uint64_t>(
                  static_cast<unsigned char>(Buf[Buf.size() - 8 + I]))
              << (8 * I);
  uint64_t Actual = snapshotHash(Buf.data(), Buf.size() - TrailerBytes);
  if (Stored != Actual) {
    Failed = true;
    Err = "snapshot " + Path + ": checksum mismatch (file is corrupt or "
          "was truncated mid-write)";
    return false;
  }
  Pos = sizeof(SnapshotMagic);
  End = Buf.size() - TrailerBytes;
  uint32_t Version = 0;
  if (!u32(Version))
    return false;
  if (Version != SnapshotFormatVersion) {
    fail("unsupported format version " + std::to_string(Version));
    return false;
  }
  return true;
}

void SnapshotReader::fail(const std::string &What) {
  if (Failed)
    return;
  Failed = true;
  Err = "snapshot " + Path + ": " + What + " at offset " +
        std::to_string(Pos);
}

bool SnapshotReader::take(void *Out, size_t N, const char *What) {
  if (Failed)
    return false;
  if (End - Pos < N) {
    fail(std::string("truncated ") + What);
    return false;
  }
  std::memcpy(Out, Buf.data() + Pos, N);
  Pos += N;
  return true;
}

bool SnapshotReader::u8(uint8_t &V) { return take(&V, 1, "u8"); }

bool SnapshotReader::u32(uint32_t &V) {
  unsigned char B[4];
  if (!take(B, 4, "u32"))
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(B[I]) << (8 * I);
  return true;
}

bool SnapshotReader::u64(uint64_t &V) {
  unsigned char B[8];
  if (!take(B, 8, "u64"))
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(B[I]) << (8 * I);
  return true;
}

bool SnapshotReader::str(std::string &S) {
  uint32_t N = 0;
  if (!u32(N))
    return false;
  if (End - Pos < N) {
    fail("truncated string of length " + std::to_string(N));
    return false;
  }
  S.assign(Buf.data() + Pos, N);
  Pos += N;
  return true;
}

bool SnapshotReader::bits(std::vector<bool> &B) {
  uint32_t N = 0;
  if (!u32(N))
    return false;
  if (End - Pos < N) {
    fail("truncated bit vector of length " + std::to_string(N));
    return false;
  }
  B.clear();
  B.reserve(N);
  for (uint32_t I = 0; I < N; ++I)
    B.push_back(Buf[Pos + I] != 0);
  Pos += N;
  return true;
}

} // namespace tracer
} // namespace optabs
