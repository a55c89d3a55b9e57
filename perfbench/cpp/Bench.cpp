//===- perfbench/cpp/Bench.cpp - End-to-end compile-path benchmark --------===//
//
// One workload per process:
//
//   sdsp_e2e --workload W --seed N --seconds S --trace 0|1
//            --sdspc PATH --sdspd PATH --work DIR
//
// Run from the checkout root (examples/*.loop are read relative to it).
// The last line of stdout is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1.  Workloads are closed loops on one thread: the next
// request is sent when the previous one has answered.  Every run
// attempts whole rounds of the workload's request stream.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "LoopGen.h"

#include "support/Json.h"
#include "support/Wire.h"
#include "tools/DriverCore.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <spawn.h>
#include <sstream>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Sdspc, Sdspd, Work;
};

/// Setup is repeated this many times per run and its median reported.
constexpr int SetupRepeats = 5;

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "perfbench: " << Msg << "\n";
  std::exit(2);
}

/// The program reads SDSP_* variables (cache switch, fault schedule,
/// SIMD tier, store directory); none may leak into a measurement.
void clearSdspEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SDSP_", 5) == 0)
      Names.emplace_back(*E, std::strchr(*E, '=') - *E);
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// A seeded permutation of 0..N-1 (splitmix64 Fisher-Yates).
std::vector<size_t> shuffled(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  uint64_t State = Seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull;
  for (size_t I = N; I > 1; --I) {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    Z ^= Z >> 31;
    std::swap(Order[I - 1], Order[Z % I]);
  }
  return Order;
}

//===----------------------------------------------------------------------===//
// Child processes: the sdspd daemon and spawned sdspc runs.
//===----------------------------------------------------------------------===//

pid_t spawn(const std::vector<std::string> &Argv, const std::string &OutFile,
            const std::string &ErrFile) {
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&FA, 1, OutFile.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&FA, 2, ErrFile.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char *> CArgs;
  for (const std::string &A : Argv)
    CArgs.push_back(const_cast<char *>(A.c_str()));
  CArgs.push_back(nullptr);
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, CArgs[0], &FA, nullptr, CArgs.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0)
    die("cannot start " + Argv[0] + ": " + std::strerror(Rc));
  return Pid;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One sdspd -j 2 with its memory tier only, serving on a socket under
/// the work directory (a relative path, so it fits sun_path).
class Daemon {
public:
  Daemon(const std::string &Sdspd, const std::string &Dir) : Dir(Dir) {
    Socket = Dir + "/d.sock";
    fs::remove(Socket);
    Pid = spawn({Sdspd, "--socket=" + Socket, "-j", "2"}, Dir + "/d.out",
                Dir + "/d.err");
    Clock::time_point T0 = Clock::now();
    while (readFile(Dir + "/d.out").find("listening") == std::string::npos) {
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = 0;
        die("sdspd exited: " + readFile(Dir + "/d.err"));
      }
      if (msSince(T0) > 20000)
        die("sdspd did not come up");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Stops the daemon (graceful drain) and waits for it.
  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = 0;
  }

  const std::string &socket() const { return Socket; }

private:
  std::string Dir, Socket;
  pid_t Pid = 0;
};

/// One request over the daemon's socket: connect, one frame each way.
/// Returns false on a transport failure.
bool remoteCall(const std::string &Socket, const Request &R, Output &O,
                double &ConnectMs, double &RoundtripMs) {
  sdsp::json::Value Req = sdsp::json::Value::object();
  Req.set("schema", sdsp::json::Value::string("sdsp-request-v1"));
  sdsp::json::Value Argv = sdsp::json::Value::array();
  for (const std::string &A : R.Argv)
    Argv.push(sdsp::json::Value::string(A));
  Req.set("argv", std::move(Argv));
  std::string Payload = sdsp::json::serialize(Req);

  Clock::time_point T0 = Clock::now();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Socket.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return false;
  }
  ConnectMs = msSince(T0);
  Clock::time_point T1 = Clock::now();
  std::string Reply;
  bool Clean = false;
  bool Ok = sdsp::writeFrame(Fd, Payload).ok() &&
            sdsp::readFrame(Fd, Reply, Clean).ok();
  ::close(Fd);
  if (!Ok)
    return false;
  sdsp::json::Value Resp;
  std::string Error;
  if (!sdsp::json::parse(Reply, Resp, Error))
    return false;
  const sdsp::json::Value *Exit = Resp.find("exit");
  const sdsp::json::Value *Out = Resp.find("stdout");
  const sdsp::json::Value *Err = Resp.find("stderr");
  if (!Exit || !Exit->isInt() || !Out || !Out->isString() || !Err ||
      !Err->isString())
    return false;
  O.Exit = static_cast<int>(Exit->asInt());
  O.Out = Out->asString();
  O.Err = Err->asString();
  RoundtripMs = msSince(T1);
  return true;
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// Accumulated per-layer figures of a traced phase (sums over requests).
struct Layers {
  PassTimes Pass;
  double Requests = 0;
  double Unattributed = 0;
  double StoreOpen = 0, StoreLookup = 0;
  double StoreLookups = 0, StoreHits = 0;
  double Connect = 0, Roundtrip = 0, Inproc = 0, ServiceRequests = 0;
  double ProcessStart = 0, ProcessSamples = 0;
};

/// The latencies of consecutive whole rounds spanning at least
/// WindowSeconds.  A run's figures are medians over its windows, so a
/// burst of load from outside the benchmark moves a few windows, not
/// the result.
struct Window {
  std::vector<double> Lat;
  double Seconds = 0;
};
constexpr double WindowSeconds = 1.0;

class Bench {
public:
  explicit Bench(Args A) : A(std::move(A)) {}
  int run();

private:
  // Setup, one per workload; each may be called repeatedly.
  void setupKernels();
  void setupLargeLoops();

  /// Runs one request of the timed path; returns its latency in ms.
  double timedRequest(size_t I);
  /// Sends whole rounds until \p Seconds passed (at least one round);
  /// latencies land in \p W, grouped into windows.
  void runRounds(double Seconds, std::vector<Window> &W, Layers *L,
                 uint64_t &Round);
  /// The traced-only extras for request \p I, whose timed path took
  /// \p PathMs: the pass replay and, on kernels, the store and service
  /// probes.
  void traceExtras(size_t I, double PathMs, Layers &L);
  void processStartSample(Layers &L);
  /// The disk tier on the kernels stream (traced kernels runs only):
  /// fills a fresh store directory, as cold sdspc --store-dir runs do.
  void fillStore();
  /// One warm sdspc --store-dir request: a fresh store stack on the
  /// filled directory, timed at the store boundary; its output must
  /// equal the no-store run's.
  void storeProbe(size_t I, Layers &L);
  /// The compile service on the kernels stream (traced kernels runs
  /// only): starts sdspd -j 2 and warms its memory tier with one round.
  void startDaemon();
  /// One request over the socket, timed by the client, next to the
  /// same request in-process on a warm MemoryStore; the answer must
  /// equal the no-store run's.
  void serviceProbe(size_t I, Layers &L);

  void check(size_t I, const Output &O);
  /// Records a failed check; the run then reports correct = false.
  void fail(const std::string &Msg);

  Args A;
  std::vector<Request> Stream;
  /// Expected output per request: the checked no-store in-process run,
  /// which store and service outputs must equal byte for byte (empty on
  /// large_loops, whose outputs are checked against the closed form).
  std::vector<Output> Expected;
  std::string StoreDir;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<sdsp::MemoryStore> WarmMemory;
  double PublishMsPerRequest = 0;

  uint64_t Attempted = 0, Failed = 0;
  /// The first failed checks, and how many more there were.
  std::vector<std::string> Errors;
  uint64_t MoreErrors = 0;
};

void Bench::fail(const std::string &Msg) {
  if (Errors.size() < 5)
    Errors.push_back(Msg);
  else
    ++MoreErrors;
}

void Bench::check(size_t I, const Output &O) {
  const Request &R = Stream[I];
  std::string E = Expected.empty()
                      ? checkOutput(R.Expect, O.Exit, O.Out, O.Err)
                  : O == Expected[I]
                      ? ""
                      : "output differs from the no-store in-process run";
  if (!E.empty()) {
    std::string Line;
    for (const std::string &Arg : R.Argv)
      Line += Arg + " ";
    fail(Line + ": " + E);
  }
}

void Bench::setupKernels() {
  Stream = kernelsStream();
  Expected.clear();
  std::vector<Output> Ref;
  for (const Request &R : Stream) {
    Output O = runLocal(R);
    if (std::string E = checkOutput(R.Expect, O.Exit, O.Out, O.Err);
        !E.empty())
      die("setup check failed for " + R.Argv[0] + " " + R.Argv[1] + ": " +
          E);
    PassTimes Unused;
    if (std::string E = replay(R, Unused); !E.empty())
      die("setup replay failed for " + R.Argv[0] + ": " + E);
    if (R.Expect.M == Mode::Program && !R.KernelId.empty())
      if (std::string E = checkProgramOnVm(R, O.Out); !E.empty())
        die("VM check failed for " + R.KernelId + ": " + E);
    Ref.push_back(std::move(O));
  }
  Expected = std::move(Ref);
}

void Bench::setupLargeLoops() {
  Stream.clear();
  Expected.clear();
  std::vector<GeneratedLoop> Loops = generateLargeLoops(A.Seed);
  for (size_t I = 0; I < Loops.size(); ++I) {
    Request R;
    R.Path = A.Work + "/large" + std::to_string(I) + ".loop";
    std::ofstream(R.Path) << Loops[I].Text;
    R.Argv = {R.Path, "--emit=schedule"};
    R.Expect = {Mode::Ideal, Loops[I].Ops, Loops[I].Alpha, false};
    Stream.push_back(std::move(R));
  }
  // Warm-up: the smallest program once, checked.
  Output O = runLocal(Stream.front());
  if (std::string E = checkOutput(Stream.front().Expect, O.Exit, O.Out,
                                  O.Err);
      !E.empty())
    die("setup check failed on the generated program: " + E);
}

void Bench::startDaemon() {
  D = std::make_unique<Daemon>(A.Sdspd, A.Work);
  // One warm round fills the daemon's memory tier; the in-process warm
  // memory store used for service.inproc_ms is filled the same way.
  WarmMemory = std::make_unique<sdsp::MemoryStore>();
  for (size_t I = 0; I < Stream.size(); ++I) {
    Output O;
    double C = 0, T = 0;
    if (!remoteCall(D->socket(), Stream[I], O, C, T) || !(O == Expected[I]))
      die("warm-up request to sdspd failed or differs");
    if (!(runLocal(Stream[I], WarmMemory.get()) == Expected[I]))
      die("warm memory-store run differs from the no-store run");
  }
}

double Bench::timedRequest(size_t I) {
  Clock::time_point T0 = Clock::now();
  Output O = runLocal(Stream[I]);
  double Ms = msSince(T0);
  ++Attempted;
  if (O.Exit != 0)
    ++Failed;
  else
    check(I, O);
  return Ms;
}

void Bench::runRounds(double Seconds, std::vector<Window> &W, Layers *L,
                      uint64_t &Round) {
  Clock::time_point T0 = Clock::now();
  Clock::time_point WStart = T0;
  Window Cur;
  std::vector<double> &Lat = Cur.Lat;
  auto Close = [&] {
    Cur.Seconds = msSince(WStart) / 1000.0;
    WStart = Clock::now();
    W.push_back(std::move(Cur));
    Cur = Window();
  };
  do {
    if (msSince(WStart) >= WindowSeconds * 1000.0)
      Close();
    // Small requests go in a seeded order; the generated programs run
    // smallest first, so the allocator sees the same sequence each run.
    std::vector<size_t> Order = shuffled(Stream.size(), A.Seed * 1000 + Round);
    if (A.Workload == "large_loops")
      std::sort(Order.begin(), Order.end());
    ++Round;
    for (size_t I : Order) {
      Lat.push_back(timedRequest(I));
      if (L)
        traceExtras(I, Lat.back(), *L);
    }
  } while (msSince(T0) < Seconds * 1000.0);
  // A short last window joins the one before it.
  if (W.empty() || msSince(WStart) >= WindowSeconds * 1000.0) {
    Close();
  } else {
    W.back().Lat.insert(W.back().Lat.end(), Lat.begin(), Lat.end());
    W.back().Seconds += msSince(WStart) / 1000.0;
  }
}

void Bench::traceExtras(size_t I, double PathMs, Layers &L) {
  const Request &R = Stream[I];
  PassTimes P;
  std::string E = replay(R, P);
  if (!E.empty())
    fail("replay " + R.Argv[0] + ": " + E);
  L.Pass += P;
  L.Unattributed += PathMs - P.sum();
  L.Requests += 1;
  if (!StoreDir.empty())
    storeProbe(I, L);
  if (D)
    serviceProbe(I, L);
}

void Bench::serviceProbe(size_t I, Layers &L) {
  Output O;
  double C = 0, T = 0;
  if (!remoteCall(D->socket(), Stream[I], O, C, T) || !(O == Expected[I])) {
    fail("sdspd answer for " + Stream[I].Argv[1] +
         " differs from the no-store run");
    return;
  }
  Clock::time_point T0 = Clock::now();
  runLocal(Stream[I], WarmMemory.get());
  L.Inproc += msSince(T0);
  L.Connect += C;
  L.Roundtrip += T;
  L.ServiceRequests += 1;
}

void Bench::fillStore() {
  StoreDir = A.Work + "/store";
  fs::remove_all(StoreDir);
  double Publish = 0;
  for (size_t I = 0; I < Stream.size(); ++I) {
    sdsp::driver::Options Opts;
    Opts.StoreDir = StoreDir;
    sdsp::driver::StoreStack Stack;
    if (!sdsp::driver::makeStoreStack(Opts, Stack, std::cerr))
      die("cannot open the store");
    TimedStore TS(*Stack.store());
    if (!(runLocal(Stream[I], &TS) == Expected[I]))
      die("cold store run differs from the no-store run");
    Publish += TS.PublishMs;
  }
  PublishMsPerRequest = Publish / static_cast<double>(Stream.size());
}

void Bench::storeProbe(size_t I, Layers &L) {
  Clock::time_point T0 = Clock::now();
  sdsp::driver::Options Opts;
  Opts.StoreDir = StoreDir;
  sdsp::driver::StoreStack Stack;
  if (!sdsp::driver::makeStoreStack(Opts, Stack, std::cerr))
    die("cannot open the store");
  L.StoreOpen += msSince(T0);
  TimedStore TS(*Stack.store());
  Output O = runLocal(Stream[I], &TS);
  L.StoreLookup += TS.LookupMs;
  L.StoreLookups += static_cast<double>(TS.Lookups);
  L.StoreHits += static_cast<double>(TS.Hits);
  if (!(O == Expected[I]))
    fail("warm store run of " + Stream[I].Argv[1] +
         " differs from the no-store run");
}

void Bench::processStartSample(Layers &L) {
  // A fixed sample: the first corpus entry's five requests, or the
  // smallest generated program.
  size_t N = A.Workload == "large_loops" ? 1 : std::min<size_t>(5, Stream.size());
  for (int Rep = 0; Rep < 3; ++Rep)
    for (size_t I = 0; I < N; ++I) {
      const Request &R = Stream[I];
      std::vector<std::string> Argv = {A.Sdspc};
      Argv.insert(Argv.end(), R.Argv.begin(), R.Argv.end());
      Clock::time_point T0 = Clock::now();
      pid_t Pid = spawn(Argv, A.Work + "/p.out", A.Work + "/p.err");
      int Status = 0;
      while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
      }
      double SpawnMs = msSince(T0);
      Clock::time_point T1 = Clock::now();
      Output O = runLocal(R);
      double InMs = msSince(T1);
      Output P{WIFEXITED(Status) ? WEXITSTATUS(Status) : -1,
               readFile(A.Work + "/p.out"), readFile(A.Work + "/p.err")};
      if (!(P == O))
        fail("spawned sdspc differs from the in-process run");
      L.ProcessStart += SpawnMs - InMs;
      L.ProcessSamples += 1;
    }
}

void printMetric(std::ostringstream &OS, bool &First, const char *Name,
                 double V, const char *Unit) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Buf
     << ", \"unit\": \"" << Unit << "\"}";
  First = false;
}

int Bench::run() {
  fs::create_directories(A.Work);
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    if (A.Workload == "kernels")
      setupKernels();
    else if (A.Workload == "large_loops")
      setupLargeLoops();
    else
      die("unknown workload '" + A.Workload + "'");
    SetupS.push_back(msSince(T0) / 1000.0);
  }
  // large_loops checks every output against the closed form; the
  // others compare bytes with the checked no-store outputs.
  uint64_t Round = 0;
  std::ostringstream OS;
  bool First = true;
  if (!A.Trace) {
    std::vector<Window> W;
    runRounds(A.Seconds, W, nullptr, Round);
    double Rss = selfPeakRssMb();
    std::vector<double> P50, P90, Rate;
    for (const Window &Win : W) {
      P50.push_back(quantile(Win.Lat, 0.5));
      P90.push_back(quantile(Win.Lat, 0.9));
      Rate.push_back(static_cast<double>(Win.Lat.size()) / Win.Seconds);
    }
    printMetric(OS, First, "setup_s", quantile(SetupS, 0.5), "s");
    printMetric(OS, First, "latency_p50_ms", quantile(P50, 0.5), "ms");
    printMetric(OS, First, "latency_p90_ms", quantile(P90, 0.5), "ms");
    printMetric(OS, First, "throughput_per_s", quantile(Rate, 0.5), "1/s");
    printMetric(OS, First, "peak_rss_mb", Rss, "MB");
  } else {
    // Untraced then traced phase; their latency difference is the
    // tracing overhead.
    std::vector<Window> Plain, Traced;
    Layers L;
    runRounds(A.Seconds / 3, Plain, nullptr, Round);
    if (A.Workload == "kernels") {
      fillStore();
      startDaemon();
    }
    runRounds(A.Seconds * 2 / 3, Traced, &L, Round);
    processStartSample(L);
    auto Mean = [](const std::vector<Window> &W) {
      double S = 0, N = 0;
      for (const Window &Win : W)
        for (double X : Win.Lat) {
          S += X;
          N += 1;
        }
      return N > 0 ? S / N : 0;
    };
    double N = std::max(1.0, L.Requests);
    const PassTimes &P = L.Pass;
    printMetric(OS, First, "loopir.lower_ms", P.Lower / N, "ms");
    printMetric(OS, First, "core.sdsp_ms", P.Sdsp / N, "ms");
    printMetric(OS, First, "core.sdsp_pn_ms", P.SdspPn / N, "ms");
    printMetric(OS, First, "core.schedule_ms", P.Schedule / N, "ms");
    printMetric(OS, First, "petri.rate_ms", P.Rate / N, "ms");
    printMetric(OS, First, "petri.frustum_ms", P.Frustum / N, "ms");
    printMetric(OS, First, "petri.frustum_instants", P.Instants / N,
                "count");
    printMetric(OS, First, "core.sdsp_pn_transitions", P.Transitions / N,
                "count");
    printMetric(OS, First, "dataflow.transform_ms", P.Transform / N, "ms");
    printMetric(OS, First, "core.scp_ms", P.Scp / N, "ms");
    printMetric(OS, First, "codegen.program_ms", P.Program / N, "ms");
    printMetric(OS, First, "core.verify_ms", P.Verify / N, "ms");
    printMetric(OS, First, "driver.unattributed_ms", L.Unattributed / N,
                "ms");
    bool Store = !StoreDir.empty();
    printMetric(OS, First, "store.open_ms", Store ? L.StoreOpen / N : 0,
                "ms");
    printMetric(OS, First, "store.lookup_ms", Store ? L.StoreLookup / N : 0,
                "ms");
    printMetric(OS, First, "store.hit_ratio",
                L.StoreLookups > 0 ? L.StoreHits / L.StoreLookups : 0,
                "ratio");
    printMetric(OS, First, "store.publish_ms",
                Store ? PublishMsPerRequest : 0, "ms");
    double S = std::max(1.0, L.ServiceRequests);
    printMetric(OS, First, "service.connect_ms", L.Connect / S, "ms");
    printMetric(OS, First, "service.roundtrip_ms", L.Roundtrip / S, "ms");
    printMetric(OS, First, "service.inproc_ms", L.Inproc / S, "ms");
    printMetric(OS, First, "service.overhead_ms",
                (L.Connect + L.Roundtrip - L.Inproc) / S, "ms");
    printMetric(OS, First, "process.start_ms",
                L.ProcessStart / std::max(1.0, L.ProcessSamples), "ms");
    printMetric(OS, First, "bench.trace_overhead_ms",
                Mean(Traced) - Mean(Plain), "ms");
  }
  D.reset();
  fs::remove_all(A.Work);
  for (const std::string &E : Errors)
    std::cerr << "perfbench: check failed: " << E << "\n";
  if (MoreErrors)
    std::cerr << "perfbench: " << MoreErrors << " more checks failed\n";
  std::cout << "{\"correct\": " << (Errors.empty() ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": {" << OS.str() << "}}" << std::endl;
  return 0;
}

Args parseArgs(int argc, char **argv) {
  Args A;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--sdspc")
      A.Sdspc = V;
    else if (K == "--sdspd")
      A.Sdspd = V;
    else if (K == "--work")
      A.Work = V;
    else
      die("unknown argument '" + K + "'");
  }
  if (A.Workload.empty() || A.Sdspc.empty() || A.Sdspd.empty() ||
      A.Work.empty() || A.Seconds <= 0)
    die("usage: sdsp_e2e --workload W --seed N --seconds S --trace 0|1 "
        "--sdspc PATH --sdspd PATH --work DIR");
  return A;
}

} // namespace

int main(int argc, char **argv) {
  clearSdspEnvironment();
  std::signal(SIGPIPE, SIG_IGN);
  return Bench(parseArgs(argc, argv)).run();
}
