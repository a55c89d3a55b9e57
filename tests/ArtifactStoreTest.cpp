//===- tests/ArtifactStoreTest.cpp - Persistent artifact-store tests -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Pins the tiered persistent store (core/ArtifactStore.h): a cold
// process over a warm directory serves every cacheable pass from disk
// with byte-identical results, corrupt objects degrade to recompute
// (and are healed), an injected store:write fault skips the write
// without poisoning the index, the byte budget evicts LRU objects, hit
// recency survives a clean reopen, the resident set always comes
// from a scan of objects/ (a lost index, or one rewritten by another
// store on the same directory, loses no object), and a schedule object
// whose kernel is malformed decodes to nothing, so the store recomputes.
//
//===----------------------------------------------------------------------===//

#include "core/ArtifactStore.h"

#include "core/ArtifactCodec.h"
#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace sdsp;
namespace fs = std::filesystem;

namespace {

/// A unique scratch directory, removed on destruction.
struct TempDir {
  fs::path Path;

  TempDir() {
    std::random_device RD;
    std::ostringstream Name;
    Name << "sdsp-store-test-" << std::hex << RD() << RD();
    Path = fs::temp_directory_path() / Name.str();
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

const std::string &kernelSource(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  return K->Source;
}

/// One "process": a fresh memory tier over the (persistent) disk tier.
struct Process {
  MemoryStore Memory;
  DiskStore Disk;
  TieredStore Tiered;

  explicit Process(const std::string &Dir, uint64_t MaxBytes = 0)
      : Disk(DiskStore::Config{Dir, MaxBytes}), Tiered(Memory, Disk) {}
};

SessionConfig storeConfig(ArtifactStore &Store,
                          FaultContext *Faults = nullptr) {
  SessionConfig SC;
  SC.Store = &Store;
  SC.EnableCache = true;
  SC.Faults = Faults;
  return SC;
}

/// Renders the bytes a byte-identical recompile must reproduce: rate,
/// frustum, and the full schedule table.
std::string summarize(const CompiledLoop &CL) {
  std::ostringstream OS;
  OS << CL.Rate->OptimalRate << " [" << CL.Frustum->StartTime << ", "
     << CL.Frustum->RepeatTime << ")\n";
  CL.Schedule->print(OS, CL.Pn->Net);
  return OS.str();
}

/// Compiles \p Source in \p S (--verify semantics) and summarizes.
std::string compileIn(CompilationSession &S, const std::string &Source) {
  PipelineOptions PO;
  PO.Verify = true;
  auto R = S.compile(Source, PO);
  EXPECT_TRUE(R) << R.status().str();
  return R ? summarize(*R) : "<failed>";
}

/// One-shot: a throwaway session over \p Store.
std::string compileSummary(ArtifactStore &Store, const std::string &Source,
                           FaultContext *Faults = nullptr) {
  CompilationSession S(storeConfig(Store, Faults));
  return compileIn(S, Source);
}

/// Total invocations of cache-registered passes in \p S, and how many
/// of them were answered from the store.
void cachedPassCounts(const CompilationSession &S, uint64_t &Invocations,
                      uint64_t &Hits) {
  Invocations = Hits = 0;
  for (size_t P = 0; P < NumPassKinds; ++P) {
    if (!passInfo(static_cast<PassKind>(P)).Cached)
      continue;
    Invocations += S.passStats(static_cast<PassKind>(P)).Invocations;
    Hits += S.passStats(static_cast<PassKind>(P)).CacheHits;
  }
}

/// The lowered dataflow graph of kernel \p Id as a storable entry.
ArtifactEntry lowerEntry(CompilationSession &S, const char *Id) {
  auto G = S.lower(kernelSource(Id));
  EXPECT_TRUE(bool(G));
  return ArtifactEntry{G->ptr(), G->hash(), artifactSizeBytes(**G)};
}

size_t objectFileCount(const fs::path &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (auto It = fs::recursive_directory_iterator(Dir / "objects", EC);
       It != fs::recursive_directory_iterator(); ++It)
    if (It->is_regular_file())
      ++N;
  return N;
}

size_t indexLineCount(const fs::path &Dir) {
  std::ifstream In(Dir / "index");
  size_t N = 0;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Cold-restart persistence.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ColdRestartServesLivermoreKernelsFromDisk) {
  // The acceptance shape (docs/SERVICE.md): compile the six Livermore
  // kernels, tear the process-local tiers down, and recompile cold —
  // every cacheable pass is a disk hit and the output is byte-identical.
  const char *Kernels[] = {"loop1", "loop3", "loop5",
                           "loop7", "loop9", "loop12"};
  for (const char *Id : Kernels) {
    TempDir Dir;
    std::string ColdSummary;
    uint64_t ColdWrites = 0;
    {
      Process Cold(Dir.str());
      ColdSummary = compileSummary(Cold.Tiered, kernelSource(Id));
      auto C = Cold.Disk.counters();
      EXPECT_GT(C.Writes, 0u) << Id;
      EXPECT_EQ(C.Hits, 0u) << Id;
      ColdWrites = C.Writes;
      EXPECT_EQ(Cold.Disk.entries(), ColdWrites) << Id;
    } // The memory tier dies with the "process"; the directory stays.

    Process Warm(Dir.str());
    CompilationSession S(storeConfig(Warm.Tiered));
    std::string WarmSummary = compileIn(S, kernelSource(Id));
    EXPECT_EQ(WarmSummary, ColdSummary) << Id;

    // Every cacheable pass was answered from the store, and the store
    // answered every distinct key from disk without recomputing or
    // rewriting anything.
    uint64_t Invocations = 0, Hits = 0;
    cachedPassCounts(S, Invocations, Hits);
    EXPECT_GT(Invocations, 0u) << Id;
    EXPECT_EQ(Hits, Invocations) << Id;
    auto C = Warm.Disk.counters();
    EXPECT_EQ(C.Hits, ColdWrites) << Id;
    EXPECT_EQ(C.Misses, 0u) << Id;
    EXPECT_EQ(C.Writes, 0u) << Id;
    EXPECT_EQ(C.Corrupt, 0u) << Id;
  }
}

TEST(ArtifactStoreTest, TwoProcessesOverOneDirectoryAgree) {
  // Two live "processes" pointed at one directory: whichever writes
  // first, the other reads, and both summaries match the single-process
  // result.
  TempDir Dir;
  Process A(Dir.str()), B(Dir.str());
  std::string FromA = compileSummary(A.Tiered, kernelSource("loop7"));
  std::string FromB = compileSummary(B.Tiered, kernelSource("loop7"));
  EXPECT_EQ(FromA, FromB);
  EXPECT_EQ(B.Disk.counters().Writes, 0u); // A's objects answered B.
  EXPECT_GT(B.Disk.counters().Hits, 0u);
}

//===----------------------------------------------------------------------===//
// Corruption tolerance.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, CorruptObjectDegradesToRecomputeAndHeals) {
  TempDir Dir;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"));
    ASSERT_GT(Cold.Disk.entries(), 0u);
  }

  // Garble the first object: keep the length (so this is payload
  // corruption, not a torn write) but flip the bytes.
  fs::path Victim;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects"))
    if (E.is_regular_file()) {
      Victim = E.path();
      break;
    }
  ASSERT_FALSE(Victim.empty());
  {
    std::fstream F(Victim,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    F.seekp(0);
    for (int I = 0; I < 64; ++I)
      F.put(static_cast<char>(0xAA));
  }

  Process Warm(Dir.str());
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop7"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_GE(C.Corrupt, 1u);  // Rejected and unlinked...
  EXPECT_GE(C.Writes, 1u);   // ...then healed from the recompute.
  EXPECT_FALSE(fs::exists(Victim) &&
               fs::file_size(Victim) == 0); // Never left half-dead.

  // The healed store is fully warm again.
  Process Again(Dir.str());
  compileSummary(Again.Tiered, kernelSource("loop7"));
  EXPECT_EQ(Again.Disk.counters().Misses, 0u);
  EXPECT_EQ(Again.Disk.counters().Corrupt, 0u);
}

TEST(ArtifactStoreTest, TruncatedObjectIsRejected) {
  TempDir Dir;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop1"));
  }
  fs::path Victim;
  for (auto &E : fs::recursive_directory_iterator(Dir.Path / "objects"))
    if (E.is_regular_file()) {
      Victim = E.path();
      break;
    }
  ASSERT_FALSE(Victim.empty());
  fs::resize_file(Victim, fs::file_size(Victim) / 2);

  Process Warm(Dir.str());
  std::string Summary = compileSummary(Warm.Tiered, kernelSource("loop1"));
  EXPECT_NE(Summary, "<failed>");
  EXPECT_GE(Warm.Disk.counters().Corrupt, 1u);
}

//===----------------------------------------------------------------------===//
// Fault injection (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, WriteFaultSkipsObjectAndNeverPoisonsIndex) {
  TempDir Dir;
  Expected<FaultSchedule> Sched = FaultSchedule::parse("store:write:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();
  FaultContext FC(&*Sched, "test");

  uint64_t SurvivingWrites = 0;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop7"), &FC);
    ASSERT_NE(ColdSummary, "<failed>"); // The job absorbed the fault.
    auto C = Cold.Disk.counters();
    SurvivingWrites = C.Writes;
    EXPECT_GT(SurvivingWrites, 0u);
    // The skipped object left no trace: index, directory and counters
    // all agree on exactly the objects that completed their rename.
    EXPECT_EQ(Cold.Disk.entries(), SurvivingWrites);
    EXPECT_EQ(indexLineCount(Dir.Path), SurvivingWrites);
    EXPECT_EQ(objectFileCount(Dir.Path), SurvivingWrites);
  }

  // A cold process over the partial store: the surviving objects hit,
  // the skipped one recomputes (a miss) and is persisted this time.
  Process Warm(Dir.str());
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop7"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Hits, SurvivingWrites);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Writes, 1u);
  EXPECT_EQ(Warm.Disk.entries(), SurvivingWrites + 1);
}

TEST(ArtifactStoreTest, ReadFaultDegradesToRecompute) {
  TempDir Dir;
  std::string ColdSummary;
  uint64_t Entries = 0;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop1"));
    Entries = Cold.Disk.entries();
    ASSERT_GT(Entries, 0u);
  }

  Expected<FaultSchedule> Sched = FaultSchedule::parse("store:read:fail@1");
  ASSERT_TRUE(Sched) << Sched.status().str();
  FaultContext FC(&*Sched, "test");
  Process Warm(Dir.str());
  std::string WarmSummary =
      compileSummary(Warm.Tiered, kernelSource("loop1"), &FC);
  EXPECT_EQ(WarmSummary, ColdSummary);
  auto C = Warm.Disk.counters();
  EXPECT_EQ(C.Misses, 1u); // The faulted read, recomputed.
  EXPECT_EQ(C.Hits, Entries - 1);
  EXPECT_EQ(C.Corrupt, 0u); // A read fault is not a corrupt object.
}

//===----------------------------------------------------------------------===//
// Eviction and index recovery.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
  TempDir Dir;
  uint64_t Unbounded = 0;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop7"));
    Unbounded = Cold.Disk.bytes();
    ASSERT_GT(Unbounded, 0u);
  }

  TempDir Small;
  Process Tight(Small.str(), /*MaxBytes=*/Unbounded / 2);
  std::string Summary = compileSummary(Tight.Tiered, kernelSource("loop7"));
  EXPECT_NE(Summary, "<failed>"); // Eviction never fails the compile.
  auto C = Tight.Disk.counters();
  EXPECT_GT(C.Evictions, 0u);
  EXPECT_GE(Tight.Disk.entries(), 1u); // The newest entry always survives.
  EXPECT_EQ(objectFileCount(Small.Path), Tight.Disk.entries());
  EXPECT_EQ(indexLineCount(Small.Path), Tight.Disk.entries());

  // A reopened store sees exactly the survivors.
  DiskStore Reopened(DiskStore::Config{Small.str(), 0});
  EXPECT_EQ(Reopened.entries(), Tight.Disk.entries());
  EXPECT_EQ(Reopened.bytes(), Tight.Disk.bytes());
}

std::vector<std::string> indexDigests(const fs::path &Dir) {
  std::ifstream In(Dir / "index");
  std::vector<std::string> Out;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Out.push_back(Line.substr(0, Line.find(' ')));
  return Out;
}

TEST(ArtifactStoreTest, HitRefreshesRecencyAcrossCleanReopen) {
  // Hits reorder the LRU in memory only; the destructor persists the
  // order, so the next process under a tight budget evicts the object
  // nobody read — not the one that was just hit.
  CompilationSession Lowering(SessionConfig{false});
  auto entryFor = [&](const char *Id) { return lowerEntry(Lowering, Id); };
  const uint32_t Lower = static_cast<uint32_t>(PassKind::Lower);
  ArtifactKey Hit{Lower, 1, 0}, Cold{Lower, 2, 0}, Late{Lower, 3, 0};
  TempDir Dir;
  uint64_t HitBytes = 0, LateBytes = 0;
  {
    DiskStore First(DiskStore::Config{Dir.str(), 0});
    HitBytes = First.put(Hit, entryFor("loop1"), nullptr);
    ASSERT_GT(First.put(Cold, entryFor("loop7"), nullptr), 0u);
    ASSERT_GT(HitBytes, 0u);
  }
  std::vector<std::string> Written = indexDigests(Dir.Path);
  ASSERT_EQ(Written.size(), 2u);
  {
    DiskStore Second(DiskStore::Config{Dir.str(), 0});
    ASSERT_TRUE(Second.get(Hit, nullptr).has_value());
    EXPECT_EQ(indexDigests(Dir.Path), Written); // No write on the hit.
  }
  std::vector<std::string> Reordered = indexDigests(Dir.Path);
  ASSERT_EQ(Reordered.size(), 2u);
  EXPECT_EQ(Reordered.front(), Written.back());
  EXPECT_EQ(Reordered.back(), Written.front());

  ArtifactEntry LateEntry = entryFor("loop12");
  {
    // Measure the late object's size in a scratch store first.
    TempDir Scratch;
    DiskStore Probe(DiskStore::Config{Scratch.str(), 0});
    LateBytes = Probe.put(Late, LateEntry, nullptr);
    ASSERT_GT(LateBytes, 0u);
  }
  DiskStore Tight(DiskStore::Config{Dir.str(), HitBytes + LateBytes});
  ASSERT_EQ(Tight.put(Late, LateEntry, nullptr), LateBytes);
  EXPECT_EQ(Tight.counters().Evictions, 1u);
  EXPECT_TRUE(Tight.contains(Hit));
  EXPECT_FALSE(Tight.contains(Cold));
  EXPECT_TRUE(Tight.contains(Late));
}

TEST(ArtifactStoreTest, TwoLiveStoresOnOneDirectoryKeepBothObjects) {
  // Each store rewrites the index from its own view, so the second put
  // drops the first store's entry from the file.  A reopen must still
  // index both objects and count both against the byte budget.
  CompilationSession Lowering(SessionConfig{false});
  auto entryFor = [&](const char *Id) { return lowerEntry(Lowering, Id); };
  const uint32_t Lower = static_cast<uint32_t>(PassKind::Lower);
  ArtifactKey X{Lower, 1, 0}, Y{Lower, 2, 0}, Z{Lower, 3, 0};
  TempDir Dir;
  uint64_t XBytes = 0, YBytes = 0;
  {
    DiskStore A(DiskStore::Config{Dir.str(), 0});
    DiskStore B(DiskStore::Config{Dir.str(), 0});
    XBytes = A.put(X, entryFor("loop1"), nullptr);
    YBytes = B.put(Y, entryFor("loop7"), nullptr);
    ASSERT_GT(XBytes, 0u);
    ASSERT_GT(YBytes, 0u);
  }
  ASSERT_EQ(objectFileCount(Dir.Path), 2u);
  {
    DiskStore Reopened(DiskStore::Config{Dir.str(), 0});
    EXPECT_EQ(Reopened.entries(), 2u);
    EXPECT_EQ(Reopened.bytes(), XBytes + YBytes);
    EXPECT_TRUE(Reopened.contains(X));
    EXPECT_TRUE(Reopened.contains(Y));
  }
  EXPECT_EQ(indexLineCount(Dir.Path), 2u);

  // Under a budget that fits exactly the two, a third object must
  // evict: both residents are charged.
  DiskStore Tight(DiskStore::Config{Dir.str(), XBytes + YBytes});
  EXPECT_EQ(Tight.bytes(), XBytes + YBytes);
  ASSERT_GT(Tight.put(Z, entryFor("loop12"), nullptr), 0u);
  EXPECT_GE(Tight.counters().Evictions, 1u);
  EXPECT_EQ(objectFileCount(Dir.Path), Tight.entries());
}

TEST(ArtifactStoreTest, MissingIndexIsRebuiltByScanningObjects) {
  TempDir Dir;
  uint64_t Entries = 0, Bytes = 0;
  std::string ColdSummary;
  {
    Process Cold(Dir.str());
    ColdSummary = compileSummary(Cold.Tiered, kernelSource("loop12"));
    Entries = Cold.Disk.entries();
    Bytes = Cold.Disk.bytes();
  }
  fs::remove(Dir.Path / "index");

  Process Warm(Dir.str());
  EXPECT_EQ(Warm.Disk.entries(), Entries);
  EXPECT_EQ(Warm.Disk.bytes(), Bytes);
  std::string WarmSummary = compileSummary(Warm.Tiered, kernelSource("loop12"));
  EXPECT_EQ(WarmSummary, ColdSummary);
  EXPECT_EQ(Warm.Disk.counters().Misses, 0u);
}

TEST(ArtifactStoreTest, GarbageIndexFallsBackToScan) {
  TempDir Dir;
  uint64_t Entries = 0;
  {
    Process Cold(Dir.str());
    compileSummary(Cold.Tiered, kernelSource("loop1"));
    Entries = Cold.Disk.entries();
  }
  {
    std::ofstream Out(Dir.Path / "index", std::ios::trunc);
    Out << "this is not an index\nnor this line either\n";
  }
  Process Warm(Dir.str());
  EXPECT_EQ(Warm.Disk.entries(), Entries);
  Process Again(Dir.str());
  compileSummary(Again.Tiered, kernelSource("loop1"));
  EXPECT_EQ(Again.Disk.counters().Misses, 0u);
}

//===----------------------------------------------------------------------===//
// Interface conformance: MemoryStore and TieredStore are
// interchangeable behind ArtifactStore.
//===----------------------------------------------------------------------===//

TEST(ArtifactStoreTest, MemoryAndTieredStoresProduceIdenticalOutput) {
  TempDir Dir;
  MemoryStore Plain;
  std::string FromMemory = compileSummary(Plain, kernelSource("loop5"));

  Process Tiered(Dir.str());
  std::string FromTiered = compileSummary(Tiered.Tiered, kernelSource("loop5"));
  EXPECT_EQ(FromMemory, FromTiered);

  SessionConfig Off;
  Off.EnableCache = false;
  CompilationSession Uncached(Off);
  PipelineOptions PO;
  PO.Verify = true;
  auto R = Uncached.compile(kernelSource("loop5"), PO);
  ASSERT_TRUE(R) << R.status().str();
  EXPECT_EQ(summarize(*R), FromMemory);
}

//===----------------------------------------------------------------------===//
// Schedule objects.
//===----------------------------------------------------------------------===//

/// The schedule codec's bytes for a 2-transition schedule with start 0,
/// period 1 and k = 1: no prologue, and the kernel ops (slot 0, first
/// iteration 0) of \p KernelTransitions.
std::vector<uint8_t>
scheduleBytes(const std::vector<uint32_t> &KernelTransitions) {
  ByteWriter W;
  W.u64(2); // transitions
  W.u64(0); // kernel start
  W.u64(1); // period p
  W.u32(1); // iterations per kernel k
  W.u64(0); // prologue ops
  W.u64(KernelTransitions.size());
  for (uint32_t T : KernelTransitions) {
    W.u32(0); // slot
    W.u32(T);
    W.u64(0); // first iteration
  }
  return W.take();
}

std::shared_ptr<const void> decodeScheduleBytes(const std::vector<uint8_t> &B) {
  ByteReader R(B);
  return decodeArtifact(PassKind::Schedule, R);
}

TEST(ArtifactStoreTest, ScheduleDecodeRequiresKSlotsPerTransition) {
  // Well formed: each transition holds exactly k = 1 kernel slot.
  std::shared_ptr<const void> Good = decodeScheduleBytes(scheduleBytes({0, 1}));
  ASSERT_NE(Good, nullptr);
  const auto &S = *static_cast<const SoftwarePipelineSchedule *>(Good.get());
  EXPECT_EQ(S.startTime(TransitionId(1u), 3), 3u);

  // Transition 1 has no kernel slot: its start times are undefined, so
  // the object must be rejected (the store then recomputes it).
  EXPECT_EQ(decodeScheduleBytes(scheduleBytes({0})), nullptr);
  // Right op count, wrong shape: transition 0 twice, transition 1 never.
  EXPECT_EQ(decodeScheduleBytes(scheduleBytes({0, 0})), nullptr);
  // One op too many.
  EXPECT_EQ(decodeScheduleBytes(scheduleBytes({0, 1, 1})), nullptr);
}

} // namespace
