//===- core/ArtifactStore.cpp - Tiered artifact storage --------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactStore.h"

#include "core/ArtifactCodec.h"
#include "support/Bytes.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

using namespace sdsp;

namespace fs = std::filesystem;

ArtifactStore::~ArtifactStore() = default;

namespace {

/// Object file layout (all integers little-endian, support/Bytes.h):
///   magic "SDSPSTO1"
///   u32 Pass, u64 Inputs, u64 Options      the key, re-checked on read
///   u64 ContentHash, u64 Bytes             the entry header
///   u64 PayloadSize, u64 PayloadFnv1a      checksum before decoding
///   payload                                core/ArtifactCodec.h bytes
constexpr char Magic[8] = {'S', 'D', 'S', 'P', 'S', 'T', 'O', '1'};
constexpr size_t HeaderBytes = 8 + 4 + 8 * 6;

std::string keyDigest(const ArtifactKey &K) {
  HashStream HS(0x5d5370a0d15cULL);
  HS.u64(K.Pass).u64(K.Inputs).u64(K.Options);
  uint64_t H = HS.hash();
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return std::string(Buf, 16);
}

bool isDigest(const std::string &S) {
  if (S.size() != 16)
    return false;
  return std::all_of(S.begin(), S.end(), [](char C) {
    return (C >= '0' && C <= '9') || (C >= 'a' && C <= 'f');
  });
}

/// Distinct temp names across threads and processes sharing one dir.
std::string tempName() {
  static const uint64_t Salt = std::random_device{}();
  static std::atomic<uint64_t> Counter{0};
  return "tmp." + std::to_string(Salt) + "." +
         std::to_string(Counter.fetch_add(1));
}

} // namespace

DiskStore::DiskStore(Config C) : Root(std::move(C.Dir)), MaxBytes(C.MaxBytes) {
  std::error_code EC;
  fs::create_directories(fs::path(Root) / "objects", EC);
  loadIndex();
}

DiskStore::~DiskStore() {
  std::lock_guard<std::mutex> Lock(M);
  if (IndexDirty)
    writeIndexLocked();
}

std::string DiskStore::objectPath(const std::string &Digest) const {
  return (fs::path(Root) / "objects" / Digest.substr(0, 2) / Digest.substr(2))
      .string();
}

void DiskStore::loadIndex() {
  std::lock_guard<std::mutex> Lock(M);
  Lru.clear();
  ByDigest.clear();
  TotalBytes = 0;

  // The objects on disk are the truth about what the store holds: a
  // second process on the same directory may have published objects
  // this index never heard of, and a crashed eviction may have removed
  // a file before rewriting the index.  Sorted by digest, so unindexed
  // objects land in a deterministic order.
  std::map<std::string, uint64_t> OnDisk;
  std::error_code EC;
  for (const auto &SubDir :
       fs::directory_iterator(fs::path(Root) / "objects", EC)) {
    if (!SubDir.is_directory())
      continue;
    std::string Prefix = SubDir.path().filename().string();
    std::error_code EC2;
    for (const auto &Obj : fs::directory_iterator(SubDir.path(), EC2)) {
      std::string Digest = Prefix + Obj.path().filename().string();
      if (!Obj.is_regular_file() || !isDigest(Digest))
        continue;
      std::error_code EC3;
      uint64_t Bytes = static_cast<uint64_t>(fs::file_size(Obj.path(), EC3));
      if (!EC3)
        OnDisk.emplace(std::move(Digest), Bytes);
    }
  }

  // The index contributes only the recency order, oldest first; lines
  // that are malformed, repeated, or name no object are skipped.
  size_t IndexLines = 0;
  std::ifstream In(fs::path(Root) / "index");
  for (std::string Line; std::getline(In, Line);) {
    ++IndexLines;
    std::string Digest = Line.substr(0, Line.find(' '));
    auto It = OnDisk.find(Digest);
    if (It == OnDisk.end() || ByDigest.count(Digest))
      continue;
    Lru.push_back(IndexEntry{Digest, It->second});
    ByDigest.emplace(Digest, std::prev(Lru.end()));
  }
  size_t Indexed = Lru.size();

  // Unindexed objects go to the cold end, in digest order.
  auto ColdEnd = Lru.begin();
  for (const auto &[Digest, Bytes] : OnDisk) {
    TotalBytes += Bytes;
    if (ByDigest.count(Digest))
      continue;
    auto Pos = Lru.insert(ColdEnd, IndexEntry{Digest, Bytes});
    ByDigest.emplace(Digest, Pos);
  }
  if (!In.is_open() || Indexed != IndexLines || Indexed != OnDisk.size())
    writeIndexLocked();
}

void DiskStore::writeIndexLocked() {
  fs::path Tmp = fs::path(Root) / (tempName() + ".index");
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    if (!Out)
      return;
    for (const IndexEntry &E : Lru)
      Out << E.Digest << ' ' << E.Bytes << '\n';
    Out.flush();
    if (!Out) {
      std::error_code EC;
      fs::remove(Tmp, EC);
      return;
    }
  }
  std::error_code EC;
  fs::rename(Tmp, fs::path(Root) / "index", EC);
  if (EC)
    fs::remove(Tmp, EC);
  else
    IndexDirty = false;
}

void DiskStore::forgetLocked(const std::string &Digest) {
  auto It = ByDigest.find(Digest);
  if (It == ByDigest.end())
    return;
  TotalBytes -= It->second->Bytes;
  Lru.erase(It->second);
  ByDigest.erase(It);
}

void DiskStore::evictLocked() {
  if (!MaxBytes)
    return;
  while (TotalBytes > MaxBytes && Lru.size() > 1) {
    // Never evict the newest entry: a just-published object larger than
    // the whole budget should still survive until something else lands.
    IndexEntry Victim = Lru.front();
    std::error_code EC;
    fs::remove(objectPath(Victim.Digest), EC);
    forgetLocked(Victim.Digest);
    ++Count.Evictions;
  }
}

std::optional<ArtifactEntry> DiskStore::get(const ArtifactKey &K,
                                            FaultContext *Faults) {
  if (Faults && !Faults->checkpoint("store:read")) {
    // An unreadable store is a cold store: degrade to a miss and let
    // the session recompute.  The checkpoint already counted the fault.
    std::lock_guard<std::mutex> Lock(M);
    ++Count.Misses;
    return std::nullopt;
  }
  std::string Digest = keyDigest(K);
  std::string Path = objectPath(Digest);

  std::string Raw;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      std::lock_guard<std::mutex> Lock(M);
      ++Count.Misses;
      return std::nullopt;
    }
    std::ostringstream OS;
    OS << In.rdbuf();
    Raw = std::move(OS).str();
  }

  auto Corrupt = [&]() -> std::optional<ArtifactEntry> {
    std::error_code EC;
    fs::remove(Path, EC);
    std::lock_guard<std::mutex> Lock(M);
    forgetLocked(Digest);
    writeIndexLocked();
    ++Count.Corrupt;
    ++Count.Misses;
    return std::nullopt;
  };

  if (Raw.size() < HeaderBytes ||
      std::memcmp(Raw.data(), Magic, sizeof(Magic)) != 0)
    return Corrupt();
  ByteReader R(reinterpret_cast<const uint8_t *>(Raw.data()) + sizeof(Magic),
               Raw.size() - sizeof(Magic));
  uint32_t Pass = R.u32();
  uint64_t Inputs = R.u64();
  uint64_t Options = R.u64();
  uint64_t ContentHash = R.u64();
  uint64_t Bytes = R.u64();
  uint64_t PayloadSize = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.ok() || Pass != K.Pass || Inputs != K.Inputs ||
      Options != K.Options || PayloadSize != R.remaining())
    return Corrupt();
  const uint8_t *Payload =
      reinterpret_cast<const uint8_t *>(Raw.data()) + HeaderBytes;
  if (fnv1a64(Payload, static_cast<size_t>(PayloadSize)) != Checksum)
    return Corrupt();
  if (Pass >= NumPassKinds || !passHasCodec(static_cast<PassKind>(Pass)))
    return Corrupt();

  ByteReader PR(Payload, static_cast<size_t>(PayloadSize));
  std::shared_ptr<const void> Value =
      decodeArtifact(static_cast<PassKind>(Pass), PR);
  if (!Value || !PR.ok() || !PR.atEnd())
    return Corrupt();
  // The decoded artifact must hash to exactly what was published: a
  // decode that "succeeds" but perturbs the structure would silently
  // change downstream cache keys and outputs.
  if (artifactContentHash(static_cast<PassKind>(Pass), Value.get()) !=
      ContentHash)
    return Corrupt();

  std::lock_guard<std::mutex> Lock(M);
  auto It = ByDigest.find(Digest);
  if (It != ByDigest.end() && std::next(It->second) != Lru.end()) {
    // Refresh recency: move to the back (most recent) of the LRU list.
    // The index is written lazily, so a warm hit costs no disk write.
    Lru.splice(Lru.end(), Lru, It->second);
    IndexDirty = true;
  }
  ++Count.Hits;
  return ArtifactEntry{std::move(Value), ContentHash, Bytes};
}

uint64_t DiskStore::put(const ArtifactKey &K, const ArtifactEntry &E,
                        FaultContext *Faults) {
  if (K.Pass >= NumPassKinds || !passHasCodec(static_cast<PassKind>(K.Pass)))
    return 0;
  if (Faults && !Faults->checkpoint("store:write"))
    // Skip the write entirely — the index is only ever updated after a
    // completed rename, so a write fault can never poison it.  The
    // session still publishes to the memory tier and succeeds.
    return 0;

  std::string Digest = keyDigest(K);
  {
    std::lock_guard<std::mutex> Lock(M);
    if (ByDigest.count(Digest))
      return 0; // Already resident; artifacts are immutable per key.
  }

  ByteWriter W;
  encodeArtifact(static_cast<PassKind>(K.Pass), E.Value.get(), W);
  std::vector<uint8_t> Payload = W.take();

  ByteWriter H;
  for (char C : Magic)
    H.u8(static_cast<uint8_t>(C));
  H.u32(K.Pass);
  H.u64(K.Inputs);
  H.u64(K.Options);
  H.u64(E.ContentHash);
  H.u64(E.Bytes);
  H.u64(Payload.size());
  H.u64(fnv1a64(Payload.data(), Payload.size()));

  std::string Path = objectPath(Digest);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  fs::path Tmp = fs::path(Root) / "objects" / (tempName() + ".obj");
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return 0;
    Out.write(reinterpret_cast<const char *>(H.bytes().data()),
              static_cast<std::streamsize>(H.size()));
    Out.write(reinterpret_cast<const char *>(Payload.data()),
              static_cast<std::streamsize>(Payload.size()));
    Out.flush();
    if (!Out) {
      fs::remove(Tmp, EC);
      return 0;
    }
  }
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return 0;
  }

  uint64_t FileBytes = HeaderBytes + Payload.size();
  std::lock_guard<std::mutex> Lock(M);
  if (!ByDigest.count(Digest)) {
    Lru.push_back(IndexEntry{Digest, FileBytes});
    ByDigest.emplace(Digest, std::prev(Lru.end()));
    TotalBytes += FileBytes;
  }
  ++Count.Writes;
  evictLocked();
  writeIndexLocked();
  return FileBytes;
}

bool DiskStore::contains(const ArtifactKey &K) const {
  std::lock_guard<std::mutex> Lock(M);
  return ByDigest.count(keyDigest(K)) != 0;
}

DiskStore::Counters DiskStore::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Count;
}

size_t DiskStore::entries() const {
  std::lock_guard<std::mutex> Lock(M);
  return Lru.size();
}

uint64_t DiskStore::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return TotalBytes;
}

//===----------------------------------------------------------------------===//
// TieredStore
//===----------------------------------------------------------------------===//

std::optional<ArtifactEntry> TieredStore::lookupOrLock(const ArtifactKey &K,
                                                       FaultContext *Faults) {
  std::optional<ArtifactEntry> Hit = Memory.lookupOrLock(K, Faults);
  if (Hit)
    return Hit;
  // This thread owns the key in the memory tier; only the owner probes
  // the disk, so concurrent sessions still read each object once.
  std::optional<ArtifactEntry> FromDisk = Disk.get(K, Faults);
  if (!FromDisk)
    return std::nullopt; // Caller computes, then publish()es/abandon()s.
  Memory.publish(K, *FromDisk, Faults);
  return FromDisk;
}

PublishResult TieredStore::publish(const ArtifactKey &K, ArtifactEntry E,
                                   FaultContext *Faults) {
  // Disk first: serialization reads the value the memory tier is about
  // to share, and a write fault must not block waiters any longer than
  // a clean write would.
  uint64_t DiskBytes = Disk.put(K, E, Faults);
  Memory.publish(K, std::move(E), Faults);
  return PublishResult{DiskBytes != 0, DiskBytes};
}

void TieredStore::abandon(const ArtifactKey &K) { Memory.abandon(K); }
