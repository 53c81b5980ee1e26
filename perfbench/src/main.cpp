//===- main.cpp - The optabs benchmark driver ---------------------------------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process, two seeded workloads (see perfbench/README.md):
///
///   escape_serial  thread-escape client, direct QueryDrivers, 1 thread
///   service_edit   an in-process AnalysisService: closed-loop query phase,
///                  one-procedure edits, persist + restart
///
/// Every layer is measured from outside: the benchmark times its own calls
/// into synth::generate, pointer::runPointsTo, ir::printProgram, the
/// QueryDriver constructor / run() / destructor,
/// AnalysisService::registerProgram, Session::submit -> future ready and
/// cacheOp, and reads the counters the library already exposes
/// (DriverStats, ServiceStats, explain(), the metric registry, getrusage).
///
/// Usage:
///   optabs_perfbench --workload W --seed N --seconds S --trace 0|1
///                    [--scratch DIR]
///   optabs_perfbench --write-expected --seed N
///   optabs_perfbench --self-test
///
/// Run it from the repository root: the expected-verdict files are read
/// from (and written to) perfbench/expected.
///
/// The last line of standard output is one JSON object:
///   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
///
//===----------------------------------------------------------------------===//

#include <optabs/optabs.h>

#include "synth/Generator.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace optabs;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Clock, spans, small statistics
//===----------------------------------------------------------------------===//

/// Nanoseconds on the profiler's timebase, so the benchmark's spans and the
/// library's own spans line up in one Chrome trace.
uint64_t nowNs() { return support::Profiler::global().nowNs(); }
double secondsSince(uint64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

/// The benchmark's own spans: one per layer call it makes, kept in memory
/// and written as one Chrome trace when the process exits. Recording is
/// off outside the traced run.
class SpanLog {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t DurNs;
    unsigned Track; ///< 0 = main thread, 1.. = closed-loop clients
  };

  void setEnabled(bool On) { Enabled = On; }

  void record(const char *Name, uint64_t StartNs, uint64_t EndNs,
              unsigned Track = 0) {
    if (!Enabled)
      return;
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({Name, StartNs, EndNs - StartNs, Track});
  }

  /// Writes the benchmark's spans plus every span the library's profiler
  /// recorded as one Chrome trace-event file.
  bool writeChromeTrace(const std::string &Path) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    OS << "{\"traceEvents\":[";
    bool First = true;
    std::vector<unsigned> Tracks;
    for (const Span &S : Spans)
      if (std::find(Tracks.begin(), Tracks.end(), S.Track) == Tracks.end())
        Tracks.push_back(S.Track);
    for (unsigned T : Tracks) {
      OS << (First ? "" : ",")
         << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,\"tid\":" << T
         << ",\"args\":{\"name\":\""
         << (T == 0 ? std::string("perfbench")
                    : "perfbench-client-" + std::to_string(T))
         << "\"}}";
      First = false;
    }
    for (const Span &S : Spans) {
      OS << (First ? "" : ",") << "{\"ph\":\"X\",\"name\":\"" << S.Name
         << "\",\"pid\":2,\"tid\":" << S.Track << ",\"ts\":" << std::fixed
         << std::setprecision(3) << S.StartNs / 1000.0
         << ",\"dur\":" << S.DurNs / 1000.0 << "}";
      First = false;
    }
    support::Profiler::global().writeChromeTraceEvents(OS, First);
    OS << "]}\n";
    return static_cast<bool>(OS);
  }

private:
  bool Enabled = false;
  std::mutex M;
  std::vector<Span> Spans;
};

SpanLog Spans;

/// Times one layer call: the returned seconds feed the ledger, the span
/// feeds the Chrome trace.
template <typename Fn>
double timed(const char *Name, Fn &&F, unsigned Track = 0) {
  uint64_t Start = nowNs();
  F();
  uint64_t End = nowNs();
  Spans.record(Name, Start, End, Track);
  return (End - Start) * 1e-9;
}

/// Linear-interpolated quantile (Python's statistics "inclusive" method).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }

uint64_t splitmix64(uint64_t &X) {
  uint64_t Z = (X += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// CPU time the hypervisor gave to other guests, summed over every CPU
/// (the "steal" column of /proc/stat); 0 where it is not available. A
/// diagnostic for noisy timings, never a metric.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t F[8] = {};
  In >> Cpu;
  for (uint64_t &X : F)
    In >> X;
  long Hz = ::sysconf(_SC_CLK_TCK);
  return In && Cpu == "cpu" && Hz > 0 ? static_cast<double>(F[7]) / Hz : 0;
}

unsigned hardwareThreads() { return support::ThreadPool::hardwareWorkers(); }

//===----------------------------------------------------------------------===//
// Workloads and their seeded inputs
//===----------------------------------------------------------------------===//

enum class Workload { EscapeSerial, ServiceEdit };

const char *workloadName(Workload W) {
  return W == Workload::EscapeSerial ? "escape_serial" : "service_edit";
}

bool parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::EscapeSerial, Workload::ServiceEdit})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

/// Worker threads each workload's drivers (or service pool) run with.
unsigned workloadThreads(Workload W) {
  return W == Workload::EscapeSerial ? 1 : hardwareThreads();
}

/// True for the shapes whose programs keep their default draw under every
/// seed: those whose confuser units may be 16 or more ways wide (antlr,
/// avrora, lusearch). One wide confuser dominates such a draw's cost (the
/// avrora escape driver takes 2.5 s to 8 s across draws), so re-drawing
/// them would make every timing's seed-to-seed spread wider than any
/// usable bound. See README.md, "Seeds".
bool keepsDefaultDraw(const synth::BenchConfig &C) {
  return C.ConfuserMaxWays >= 16;
}

/// The seed -> suite mapping. Seed 0 is synth::paperSuite() verbatim
/// (BenchConfig seeds 101-107); any other seed re-draws the small and
/// medium shapes with their BenchConfig seeds offset by 1000 * seed.
std::vector<synth::BenchConfig> suiteFor(uint64_t Seed) {
  std::vector<synth::BenchConfig> Suite = synth::paperSuite();
  for (synth::BenchConfig &C : Suite)
    if (!keepsDefaultDraw(C))
      C.Seed += 1000 * Seed;
  return Suite;
}

/// service_edit repeats its two short phases within a pass, so that each
/// pass gives several samples of them: EditRounds rounds of edits (each
/// re-registers every program with one more seeded one-procedure edit) and
/// Restarts restarts (each a new service on the same persisted snapshots).
constexpr unsigned EditRounds = 3;
constexpr unsigned Restarts = 3;

/// Every client, session and verdict option comes from here: the
/// built-in defaults plus the harness operating point (32 iterations per
/// query), a determinism claim, and no wall-clock budget.
Config benchConfig(unsigned Threads) {
  Config C = Config::defaults();
  C.Execution.MaxItersPerQuery = 32;
  C.Execution.Deterministic = true;
  C.Execution.NumThreads = Threads;
  return C;
}

enum Client : uint8_t { Escape = 0, Typestate = 1 };
const char *clientName(uint8_t C) { return C == Escape ? "escape" : "typestate"; }

/// One query as the program receives it.
struct Query {
  uint32_t Prog = 0;
  uint8_t Client = Escape;
  uint32_t Check = 0;
  uint32_t Site = 0; ///< tracked allocation site (type-state only)
};

/// One generated program plus everything derived from it.
struct Program {
  synth::Benchmark B;
  std::unique_ptr<pointer::PointsToResult> Pt;
  /// Type-state queries grouped per tracked site (ascending), checks in
  /// generation order: one driver per entry in the direct references.
  std::map<uint32_t, std::vector<ir::CheckId>> BySite;
  std::string Text; ///< printed IR (service_edit)
  /// The text after each edit round: each adds one seeded one-procedure
  /// edit to the text before it.
  std::vector<std::string> Edits;
  bool DefaultDraw = false; ///< the same program as under seed 0

  /// The original text (version 0) or the text after \p Version rounds.
  const std::string &text(unsigned Version) const {
    return Version ? Edits[Version - 1] : Text;
  }
};

struct Inputs {
  uint64_t Seed = 0;
  std::vector<Program> Progs;
  /// Canonical order: per program, escape checks then (site, check) pairs.
  std::vector<Query> Queries;
};

/// The setup layer times, summed over the seven programs.
struct SetupTimes {
  double Generate = 0, PointsTo = 0, Print = 0, Register = 0;
  double total() const { return Generate + PointsTo + Print + Register; }
};

/// Splits printed IR into top-level blocks: each "proc" with its body, and
/// each other top-level line (declarations) on its own.
std::vector<std::string> topLevelBlocks(const std::string &Text) {
  std::vector<std::string> Blocks;
  std::istringstream In(Text);
  bool InProc = false;
  for (std::string L; std::getline(In, L);) {
    if (!InProc)
      Blocks.emplace_back();
    Blocks.back() += L + "\n";
    if (L.rfind("proc ", 0) == 0)
      InProc = true;
    else if (L == "}")
      InProc = false;
  }
  return Blocks;
}

/// The program text the service receives: the printed IR with `proc main`
/// moved in front of the other procedures. Checks, allocation sites and
/// variables are numbered in text order and main declares none, so every
/// query keeps its indices; but an edit late in the text now shifts the
/// ids of the procedures after it only, not of main, which is in every
/// check's footprint (ir/ProgramDiff.h: procedure hashes are
/// id-inclusive).
std::string mainFirst(const std::string &Printed) {
  std::vector<std::string> Blocks = topLevelBlocks(Printed);
  auto Main = std::find_if(Blocks.begin(), Blocks.end(), [](const auto &B) {
    return B.rfind("proc main {", 0) == 0;
  });
  auto FirstProc = std::find_if(Blocks.begin(), Blocks.end(), [](const auto &B) {
    return B.rfind("proc ", 0) == 0;
  });
  if (Main != Blocks.end() && FirstProc < Main)
    std::rotate(FirstProc, Main, Main + 1);
  std::string Out;
  for (const std::string &B : Blocks)
    Out += B;
  return Out;
}

/// The seeded one-procedure edit, the way bench_incremental edits its
/// program: duplicate one plain statement (never a check, a call or a
/// block delimiter, so check indices are unchanged) of the last procedure
/// in the text. Procedures before it keep their hashes, so the checks
/// whose footprint lies there keep their cached runs and verdicts.
std::string editProgram(const std::string &Text, uint64_t &Rng) {
  std::vector<std::string> Blocks = topLevelBlocks(Text);
  auto LastProc =
      std::find_if(Blocks.rbegin(), Blocks.rend(), [](const std::string &B) {
        return B.rfind("proc ", 0) == 0;
      });
  if (LastProc == Blocks.rend())
    return Text;
  std::string &Last = *LastProc;
  std::vector<std::string> Lines;
  std::istringstream In(Last);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  std::vector<size_t> Eligible;
  for (size_t I = 1; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (L.size() < 3 || L[0] != ' ' || L.back() != ';' ||
        L.find("check(") != std::string::npos ||
        L.find("call ") != std::string::npos)
      continue;
    Eligible.push_back(I);
  }
  if (Eligible.empty())
    return Text;
  size_t Pick = Eligible[splitmix64(Rng) % Eligible.size()];
  Last.clear();
  for (size_t I = 0; I < Lines.size(); ++I) {
    Last += Lines[I] + "\n";
    if (I == Pick)
      Last += Lines[I] + "\n";
  }
  std::string Out;
  for (const std::string &B : Blocks)
    Out += B;
  return Out;
}

/// Generates the inputs of \p Seed. The timed part (generate, points-to,
/// print) is reported through \p Times; the benchmark-side derivations
/// (query lists, edits) are not part of any layer.
Inputs makeInputs(uint64_t Seed, bool WithText, SetupTimes &Times) {
  Inputs In;
  In.Seed = Seed;
  std::vector<synth::BenchConfig> Suite = suiteFor(Seed);
  In.Progs.resize(Suite.size());
  for (size_t I = 0; I < Suite.size(); ++I) {
    Program &P = In.Progs[I];
    Times.Generate +=
        timed("synth.generate", [&] { P.B = synth::generate(Suite[I]); });
    P.DefaultDraw = Suite[I].Seed == synth::paperSuite()[I].Seed;
    Times.PointsTo += timed("pointer.points_to", [&] {
      P.Pt = std::make_unique<pointer::PointsToResult>(
          pointer::runPointsTo(P.B.P));
    });
    if (WithText) {
      Times.Print += timed("ir.print", [&] {
        std::ostringstream OS;
        ir::printProgram(OS, P.B.P);
        P.Text = mainFirst(OS.str());
      });
      // A default draw gets its seed-0 edit too, so the same program text
      // is checked against the same expected answers under every seed.
      uint64_t EditRng =
          (P.DefaultDraw ? 0 : Seed) ^ (0x5eed0edd17ULL + 0x9e37 * I);
      for (unsigned R = 0; R < EditRounds; ++R)
        P.Edits.push_back(editProgram(P.text(R), EditRng));
    }
    for (ir::CheckId C : P.B.TsChecks)
      P.Pt->pointsTo(P.B.P.checkSite(C).Var).forEach([&](size_t H) {
        P.BySite[static_cast<uint32_t>(H)].push_back(C);
      });
    for (ir::CheckId C : P.B.EscChecks)
      In.Queries.push_back(
          {static_cast<uint32_t>(I), Escape,
           static_cast<uint32_t>(C.index()), 0});
    for (const auto &[Site, Checks] : P.BySite)
      for (ir::CheckId C : Checks)
        In.Queries.push_back({static_cast<uint32_t>(I), Typestate,
                              static_cast<uint32_t>(C.index()), Site});
  }
  return In;
}

//===----------------------------------------------------------------------===//
// Answers, expected verdicts, and the failure count
//===----------------------------------------------------------------------===//

struct Answer {
  bool Done = false; ///< the job completed (service) / the driver returned
  tracer::Verdict V = tracer::Verdict::Unresolved;
  uint32_t Cost = 0;
  std::string Param;
  unsigned Iterations = 0;
  std::string Error;
};

Answer answerOf(const tracer::QueryOutcome &O) {
  Answer A;
  A.Done = true;
  A.V = O.V;
  A.Cost = O.CheapestCost;
  A.Param = O.CheapestParam;
  A.Iterations = O.Iterations;
  return A;
}

Answer answerOf(const service::QueryResult &R) {
  Answer A;
  A.Done = R.Status == service::JobStatus::Done;
  A.V = R.V;
  A.Cost = R.CheapestCost;
  A.Param = R.CheapestParam;
  A.Iterations = R.Iterations;
  if (!A.Done)
    A.Error = std::string(service::jobStatusName(R.Status)) + ": " + R.Error;
  return A;
}

/// The expected-verdict file of one (workload, seed): one line per
/// (phase, program, client, check, site). The phases are "query" and, on
/// service_edit, editPhase(1) ... editPhase(EditRounds).
using Expected = std::map<std::string, Answer>; ///< by queryKey()

std::string queryKey(const std::string &Phase, const Inputs &In,
                     const Query &Q) {
  return Phase + "\t" + In.Progs[Q.Prog].B.Config.Name + "\t" +
         clientName(Q.Client) + "\t" + std::to_string(Q.Check) + "\t" +
         std::to_string(Q.Site);
}

/// Relative to the repository root, where the benchmark runs.
const char *const ExpectedDir = "perfbench/expected";

std::string editPhase(unsigned Round) { return "edit" + std::to_string(Round); }

std::string expectedPath(Workload W, uint64_t Seed) {
  return std::string(ExpectedDir) + "/" + workloadName(W) + ".seed" +
         std::to_string(Seed) + ".tsv";
}

bool parseVerdict(const std::string &S, tracer::Verdict &V) {
  for (tracer::Verdict C : {tracer::Verdict::Proven,
                            tracer::Verdict::Impossible,
                            tracer::Verdict::Unresolved})
    if (S == tracer::verdictName(C)) {
      V = C;
      return true;
    }
  return false;
}

/// Loads an expected file; false when it does not exist. A malformed file
/// is a hard error (exit 2): a gate that silently reads nothing bites
/// nothing.
bool loadExpected(const std::string &Path, Expected &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  size_t LineNo = 0;
  for (std::string L; std::getline(In, L);) {
    ++LineNo;
    if (L.empty() || L[0] == '#')
      continue;
    std::vector<std::string> F;
    std::istringstream LS(L);
    for (std::string Field; std::getline(LS, Field, '\t');)
      F.push_back(Field);
    if (F.size() == 8)
      F.push_back(""); // empty cheapest abstraction
    Answer E;
    E.Done = true;
    if (F.size() != 9 || !parseVerdict(F[5], E.V)) {
      std::cerr << Path << ":" << LineNo << ": malformed expected line\n";
      std::exit(2);
    }
    E.Cost = static_cast<uint32_t>(std::stoul(F[6]));
    E.Iterations = static_cast<unsigned>(std::stoul(F[7]));
    E.Param = F[8];
    Out[F[0] + "\t" + F[1] + "\t" + F[2] + "\t" + F[3] + "\t" + F[4]] =
        std::move(E);
  }
  return true;
}

/// The answers a phase must produce, parallel to its query list. Known is
/// false where no oracle covers the query; only completion is checked there.
struct Want {
  std::vector<Answer> A;
  std::vector<bool> Known;

  explicit Want(size_t N) : A(N), Known(N) {}
  void set(size_t I, const Answer &X) {
    A[I] = X;
    Known[I] = true;
  }
  /// Fills every still-unknown query that \p File has an entry for.
  void fill(const Expected &File, const std::string &Phase, const Inputs &In,
            const std::vector<Query> &Qs, const std::vector<bool> &Programs) {
    for (size_t I = 0; I < Qs.size(); ++I) {
      if (Known[I] || !Programs[Qs[I].Prog])
        continue;
      auto It = File.find(queryKey(Phase, In, Qs[I]));
      if (It != File.end())
        set(I, It->second);
    }
  }
};

bool sameAnswer(const Answer &X, const Answer &Y) {
  return X.Done == Y.Done && X.V == Y.V && X.Cost == Y.Cost &&
         X.Param == Y.Param && X.Iterations == Y.Iterations;
}

/// Counts the queries of one phase that failed: the job did not complete,
/// no oracle covers it although one should, or its verdict, cost, cheapest
/// abstraction or iteration count differs from the oracle's. Each query
/// counts at most once; the first few failures are described in \p Notes.
unsigned countFailures(const std::string &Phase, const Inputs &In,
                       const std::vector<Query> &Qs,
                       const std::vector<Answer> &As, const Want &W,
                       std::vector<std::string> &Notes) {
  unsigned Failed = 0;
  for (size_t I = 0; I < Qs.size(); ++I) {
    const Answer &A = As[I];
    std::string Why;
    if (!A.Done)
      Why = "job not done (" + A.Error + ")";
    else if (!W.Known[I])
      Why = "no expected answer";
    else if (!sameAnswer(W.A[I], A))
      Why = std::string("expected ") + tracer::verdictName(W.A[I].V) +
            " cost " + std::to_string(W.A[I].Cost) + " iters " +
            std::to_string(W.A[I].Iterations) + ", got " +
            tracer::verdictName(A.V) + " cost " + std::to_string(A.Cost) +
            " iters " + std::to_string(A.Iterations);
    if (Why.empty())
      continue;
    ++Failed;
    if (Notes.size() < 10)
      Notes.push_back(queryKey(Phase, In, Qs[I]) + ": " + Why);
  }
  return Failed;
}

//===----------------------------------------------------------------------===//
// The per-layer ledger
//===----------------------------------------------------------------------===//

/// Per-layer values of one traced pass, by metric name.
using Ledger = std::map<std::string, double>;

/// Registry counters and histograms the library records while metrics are
/// enabled, under the ledger names of their src/ modules.
void readRegistry(Ledger &L) {
  support::MetricRegistry &R = support::MetricRegistry::global();
  auto C = [&](const char *N) {
    return static_cast<double>(R.counter(N).value());
  };
  auto &FixRounds = R.histogram("optabs_forward_fixpoint_rounds");
  auto &States = R.histogram("optabs_forward_states");
  auto &StepCubes = R.histogram("optabs_backward_step_cubes");
  auto &ProductCubes = R.histogram("optabs_dnf_product_cubes");
  L["dataflow.visits"] = C("optabs_forward_visits_total");
  L["dataflow.fixpoint_rounds"] = static_cast<double>(FixRounds.sum());
  L["dataflow.states"] = static_cast<double>(States.sum());
  L["meta.backward_steps"] = C("optabs_backward_steps_total");
  L["meta.step_cubes_p50"] = static_cast<double>(StepCubes.quantile(0.5));
  L["meta.step_cubes_p99"] = static_cast<double>(StepCubes.quantile(0.99));
  L["meta.segments_detected"] = C("optabs_trace_segments_detected_total");
  L["meta.segment_steps_skipped"] =
      C("optabs_backward_segment_steps_skipped_total");
  L["formula.product_calls"] = C("optabs_dnf_product_calls_total");
  L["formula.product_cubes_p50"] =
      static_cast<double>(ProductCubes.quantile(0.5));
  L["formula.product_cubes_p99"] =
      static_cast<double>(ProductCubes.quantile(0.99));
  L["formula.dropk_calls"] = C("optabs_dnf_dropk_calls_total");
  L["formula.dropk_cubes_dropped"] = C("optabs_dnf_dropk_cubes_dropped_total");
  L["tracer.mincostsat_calls"] = C("optabs_mincostsat_calls_total");
  L["tracer.mincostsat_decisions"] = C("optabs_mincostsat_decisions_total");
  L["tracer.mincostsat_conflicts"] = C("optabs_mincostsat_conflicts_total");
}

void addPhases(Ledger &L, const tracer::PhaseSeconds &P) {
  L["tracer.plan_s"] += P.Plan;
  L["tracer.forward_s"] += P.Forward;
  L["tracer.classify_s"] += P.Classify;
  L["tracer.extract_s"] += P.Extract;
  L["tracer.backward_s"] += P.Backward;
  L["tracer.merge_s"] += P.Merge;
}

double stageSum(const Ledger &L) {
  double S = 0;
  for (const char *N : {"tracer.plan_s", "tracer.forward_s",
                        "tracer.classify_s", "tracer.extract_s",
                        "tracer.backward_s", "tracer.merge_s"}) {
    auto It = L.find(N);
    S += It == L.end() ? 0 : It->second;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// One pass
//===----------------------------------------------------------------------===//

struct PassResult {
  double WallS = 0;
  std::vector<double> LatencyMs; ///< one per query-phase query
  /// escape_serial: one per program, from the analysis constructor to the
  /// driver's teardown.
  std::vector<double> ProgramS;
  double QueryPhaseS = 0;
  std::vector<double> EditS;    ///< service_edit: one per edit round
  std::vector<double> RestartS; ///< service_edit: one per restart
  /// Query phase, in canonical order of the workload's queries.
  std::vector<Answer> Answers;
  /// service_edit: the answers of each edit round and of each restart,
  /// parallel to Inputs::Queries. The restarts answer the last round's
  /// text.
  std::vector<std::vector<Answer>> EditAnswers, RestartAnswers;
  /// The process's high-water mark when the pass has done each kind of
  /// work once (service_edit: before the second restart, which only
  /// repeats the first for its timing).
  double PeakRssMb = 0;
  Ledger L;
};

/// Runs one direct driver over \p Checks and folds it into the pass.
template <typename Analysis>
void runDriver(const ir::Program &P, std::unique_ptr<Analysis> A,
               const std::vector<ir::CheckId> &Checks,
               const tracer::TracerOptions &Opts, double AnalysisCtorS,
               PassResult &R) {
  std::unique_ptr<tracer::QueryDriver<Analysis>> D;
  double Ctor = AnalysisCtorS + timed("tracer.driver_ctor", [&] {
    D = std::make_unique<tracer::QueryDriver<Analysis>>(P, *A, Opts);
  });
  std::vector<tracer::QueryOutcome> Outs;
  timed("tracer.run", [&] { Outs = D->run(Checks); });
  for (const tracer::QueryOutcome &O : Outs) {
    R.Answers.push_back(answerOf(O));
    R.LatencyMs.push_back(O.Seconds * 1e3);
  }
  const tracer::DriverStats &S = D->stats();
  Ledger &L = R.L;
  L["tracer.driver_ctor_s"] += Ctor;
  L["tracer.drivers"] += 1;
  addPhases(L, S.Phases);
  L["tracer.rounds"] += S.Rounds;
  L["tracer.forward_runs"] += S.ForwardRuns;
  L["tracer.backward_runs"] += S.BackwardRuns;
  L["tracer.solver_calls"] += S.SolverCalls;
  L["tracer.max_formula_cubes"] =
      std::max(L["tracer.max_formula_cubes"],
               static_cast<double>(S.MaxFormulaCubes));
  L["tracer.cache_hits"] += static_cast<double>(S.CacheHits);
  L["tracer.cache_misses"] += static_cast<double>(S.CacheMisses);
  for (const tracer::QueryOutcome &O : Outs)
    L["tracer.iterations"] += O.Iterations;
  L["tracer.driver_teardown_s"] += timed("tracer.driver_teardown", [&] {
    D.reset();
    A.reset();
  });
}

/// One pass of escape_serial: one direct driver per program. Per-query
/// latency is the resolution time the driver attributes to the query
/// (QueryOutcome::Seconds): a direct driver answers all its queries in one
/// run() call, so there is no per-query submit to time from outside.
void runDirectPass(const Inputs &In, PassResult &R) {
  tracer::TracerOptions Opts = tracer::TracerOptions::fromConfig(
      benchConfig(workloadThreads(Workload::EscapeSerial)));
  uint64_t Start = nowNs();
  for (const Program &P : In.Progs) {
    uint64_t ProgramStart = nowNs();
    std::unique_ptr<escape::EscapeAnalysis> A;
    double Ctor = timed("escape.analysis_ctor", [&] {
      A = std::make_unique<escape::EscapeAnalysis>(P.B.P);
    });
    runDriver(P.B.P, std::move(A), P.B.EscChecks, Opts, Ctor, R);
    R.ProgramS.push_back(secondsSince(ProgramStart));
  }
  R.WallS = secondsSince(Start);
  R.PeakRssMb = peakRssMb();
  R.L["tracer.unattributed_s"] =
      R.WallS - R.L["tracer.driver_ctor_s"] - R.L["tracer.driver_teardown_s"] -
      stageSum(R.L);
}

/// Registered service + one session per (program, client).
struct ServiceHandle {
  std::unique_ptr<service::AnalysisService> Svc;
  std::vector<service::Session> Sessions; ///< index 2 * prog + client

  std::future<service::QueryResult> submit(const Query &Q, uint64_t *Job) {
    return Sessions[2 * Q.Prog + Q.Client].submit({Q.Check, Q.Site, 0}, Job);
  }
};

service::AnalysisService::Options serviceOptions(const std::string &CacheDir,
                                                 bool Traced) {
  service::AnalysisService::Options O;
  O.Base = benchConfig(hardwareThreads());
  O.Base.Service.CacheDir = CacheDir;
  O.Base.Observability.ServiceTrace = Traced;
  // Room for every job of a pass (3 x 1372) in the explain() timelines.
  O.Base.Observability.ServiceTraceCapacity = size_t(1) << 20;
  O.AutoDispatch = true;
  return O;
}

/// Constructs a service, registers every program (its text after
/// \p Version edit rounds) and opens the sessions. Registration time goes
/// to \p RegisterS.
ServiceHandle startService(const Inputs &In, const std::string &CacheDir,
                           bool Traced, unsigned Version, double &RegisterS) {
  ServiceHandle H;
  H.Svc = std::make_unique<service::AnalysisService>(
      serviceOptions(CacheDir, Traced));
  for (const Program &P : In.Progs) {
    service::RegisterResult Reg;
    RegisterS += timed("service.register", [&] {
      Reg = H.Svc->registerProgram(P.B.Config.Name, P.text(Version));
    });
    if (!Reg.Ok) {
      std::cerr << "register " << P.B.Config.Name << " failed: " << Reg.Error
                << "\n";
      std::exit(2);
    }
    for (uint8_t C : {Escape, Typestate}) {
      service::SessionSpec Spec;
      Spec.Program = P.B.Config.Name;
      Spec.Client = clientName(C);
      Spec.SessionConfig = benchConfig(hardwareThreads());
      std::string Err;
      H.Sessions.push_back(H.Svc->openSession(Spec, Err));
      if (!H.Sessions.back().valid()) {
        std::cerr << "open session failed: " << Err << "\n";
        std::exit(2);
      }
    }
  }
  return H;
}

/// Submits \p Qs all at once and waits for every answer. Returns the time
/// until the first submitted query's verdict.
double submitAll(ServiceHandle &H, const std::vector<Query> &Qs,
                 std::vector<Answer> &Out, std::vector<uint64_t> &Jobs) {
  uint64_t Start = nowNs();
  std::vector<std::future<service::QueryResult>> Fs;
  for (const Query &Q : Qs) {
    Jobs.push_back(0);
    Fs.push_back(H.submit(Q, &Jobs.back()));
  }
  double FirstS = 0;
  for (size_t I = 0; I < Fs.size(); ++I) {
    Out.push_back(answerOf(Fs[I].get()));
    if (I == 0)
      FirstS = secondsSince(Start);
  }
  return FirstS;
}

/// Folds explain() timelines of \p Jobs into the ledger: latency
/// decomposition quantiles and per-batch driver stage seconds (each batch
/// of one service counted once). Returns the seconds it took, which the
/// caller keeps out of the pass's wall time.
double foldTimelines(const service::AnalysisService &Svc,
                     const std::vector<uint64_t> &Jobs, bool QueryPhase,
                     std::map<uint64_t, bool> &SeenBatches, Ledger &L) {
  uint64_t Start = nowNs();
  std::vector<double> Queue, Batch, Run;
  for (uint64_t J : Jobs) {
    service::JobTimeline T = Svc.explain(J);
    if (!T.Found)
      continue;
    Queue.push_back(T.queueWaitNs() * 1e-6);
    Batch.push_back(T.batchWaitNs() * 1e-6);
    Run.push_back(T.runNs() * 1e-6);
    if (T.Batch && !T.Replayed && !SeenBatches[T.Batch]) {
      SeenBatches[T.Batch] = true;
      tracer::PhaseSeconds P;
      P.Plan = T.PlanS;
      P.Forward = T.ForwardS;
      P.Classify = T.ClassifyS;
      P.Extract = T.ExtractS;
      P.Backward = T.BackwardS;
      P.Merge = T.MergeS;
      addPhases(L, P);
    }
  }
  if (QueryPhase) {
    L["service.queue_wait_ms_p50"] = quantile(Queue, 0.5);
    L["service.queue_wait_ms_p99"] = quantile(Queue, 0.99);
    L["service.batch_wait_ms_p50"] = quantile(Batch, 0.5);
    L["service.batch_wait_ms_p99"] = quantile(Batch, 0.99);
    L["service.run_ms_p50"] = quantile(Run, 0.5);
    L["service.run_ms_p99"] = quantile(Run, 0.99);
  }
  return secondsSince(Start);
}

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Sum = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Sum += E.file_size(EC);
  return Sum;
}

/// One pass of service_edit: a fresh service with its persistent tier in
/// a private directory under \p Scratch, removed at the end.
void runServicePass(const Inputs &In, const std::string &Scratch,
                    bool Traced, PassResult &R) {
  std::string CacheDir =
      Scratch + "/perfbench-cache-" + std::to_string(::getpid());
  fs::remove_all(CacheDir);
  fs::create_directories(CacheDir);
  Ledger &L = R.L;
  double RegisterS = 0;
  double ExplainS = 0; ///< reading timelines, kept out of WallS
  std::map<uint64_t, bool> SeenBatches;
  uint64_t Start = nowNs();
  ServiceHandle H = startService(In, CacheDir, Traced, 0, RegisterS);

  // Query phase: closed-loop clients over a seeded shuffle of every query.
  std::vector<size_t> Order(In.Queries.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  uint64_t Rng = In.Seed ^ 0x5ff1eULL;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix64(Rng) % I]);
  std::vector<Answer> Answers(In.Queries.size());
  std::vector<double> Latency(In.Queries.size());
  std::vector<uint64_t> Jobs(In.Queries.size());
  std::atomic<size_t> Next{0};
  unsigned Clients = std::min(4u, hardwareThreads());
  uint64_t QueryStart = nowNs();
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t K; (K = Next.fetch_add(1)) < Order.size();) {
          size_t Q = Order[K];
          uint64_t T0 = nowNs();
          service::QueryResult Res = H.submit(In.Queries[Q], &Jobs[Q]).get();
          uint64_t T1 = nowNs();
          Spans.record("service.job", T0, T1, C + 1);
          Latency[Q] = (T1 - T0) * 1e-6;
          Answers[Q] = answerOf(Res);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  R.QueryPhaseS = secondsSince(QueryStart);
  Spans.record("perfbench.query_phase", QueryStart, nowNs());
  R.LatencyMs = std::move(Latency);
  R.Answers = std::move(Answers);
  service::ServiceStats QS = H.Svc->stats();
  L["service.batches"] = static_cast<double>(QS.Batches);
  L["service.coalesced_jobs"] = static_cast<double>(QS.CoalescedJobs);
  L["service.batch_jobs_p50"] = static_cast<double>(QS.BatchJobsP50);
  if (Traced)
    ExplainS += foldTimelines(*H.Svc, Jobs, true, SeenBatches, L);

  // Edit rounds: per program, re-register the text with one more edit
  // and re-answer every query of that program. Programs are edited in
  // suite order, so a round's answers line up with Inputs::Queries.
  double ReRegisterS = 0;
  uint64_t EditStart = nowNs();
  for (unsigned Round = 1; Round <= EditRounds; ++Round) {
    double RoundS = 0;
    R.EditAnswers.emplace_back();
    for (size_t P = 0; P < In.Progs.size(); ++P) {
      std::vector<Query> Qs;
      for (const Query &Q : In.Queries)
        if (Q.Prog == P)
          Qs.push_back(Q);
      uint64_t T0 = nowNs();
      service::RegisterResult Reg;
      ReRegisterS += timed("service.reregister", [&] {
        Reg = H.Svc->registerProgram(In.Progs[P].B.Config.Name,
                                     In.Progs[P].text(Round));
      });
      if (!Reg.Ok) {
        std::cerr << "re-register failed: " << Reg.Error << "\n";
        std::exit(2);
      }
      std::vector<uint64_t> EditJobs;
      submitAll(H, Qs, R.EditAnswers.back(), EditJobs);
      RoundS += secondsSince(T0);
      if (Traced)
        ExplainS += foldTimelines(*H.Svc, EditJobs, false, SeenBatches, L);
    }
    R.EditS.push_back(RoundS);
  }
  Spans.record("perfbench.edit_phase", EditStart, nowNs());
  service::ServiceStats ES = H.Svc->stats();
  L["service.reregister_s"] = ReRegisterS;
  L["service.entries_migrated"] =
      static_cast<double>(ES.EntriesMigrated - QS.EntriesMigrated);
  L["service.entries_invalidated"] =
      static_cast<double>(ES.EntriesInvalidated - QS.EntriesInvalidated);
  L["service.verdicts_replayed"] =
      static_cast<double>(ES.VerdictsReplayed - QS.VerdictsReplayed);
  L["service.fixpoints_amortized"] =
      static_cast<double>(ES.FixpointsAmortized - QS.FixpointsAmortized);

  // Restarts: persist, drop the service, then Restarts times start a new
  // one on the same cache directory and answer every query again. Nothing
  // persists on shutdown, so every restart loads the same snapshots.
  service::CacheOpResult Persist;
  L["cache.persist_s"] =
      timed("service.cache_persist", [&] { Persist = H.Svc->cacheOp("persist"); });
  if (!Persist.Ok) {
    std::cerr << "persist failed: " << Persist.Error << "\n";
    std::exit(2);
  }
  L["cache.snapshot_bytes"] = static_cast<double>(directoryBytes(CacheDir));
  service::ServiceStats Before = H.Svc->stats();
  timed("service.shutdown", [&] { H = ServiceHandle(); });
  double RestartRegisterS = 0;
  service::ServiceStats RS; ///< summed over the restarts
  for (unsigned K = 0; K < Restarts; ++K) {
    uint64_t RestartStart = nowNs();
    ServiceHandle H2 =
        startService(In, CacheDir, Traced, EditRounds, RestartRegisterS);
    std::vector<uint64_t> RestartJobs;
    R.RestartAnswers.emplace_back();
    double FirstS =
        submitAll(H2, In.Queries, R.RestartAnswers.back(), RestartJobs);
    R.RestartS.push_back(secondsSince(RestartStart));
    Spans.record("perfbench.restart", RestartStart, nowNs());
    service::ServiceStats S = H2.Svc->stats();
    if (K == 0) {
      R.PeakRssMb = peakRssMb();
      // The cache is unbounded, so its entries are the loaded runs plus
      // the runs the restart computed.
      uint64_t Entries = H2.Svc->cacheOp("stats").Entries;
      uint64_t Loaded = Entries - std::min(Entries, S.ForwardRuns);
      L["cache.first_verdict_ms"] = FirstS * 1e3;
      L["cache.runs_loaded"] = static_cast<double>(Loaded);
      L["cache.runs_skipped"] = static_cast<double>(
          Persist.RunsPersisted - std::min(Loaded, Persist.RunsPersisted));
      L["cache.verdicts_loaded"] = static_cast<double>(S.VerdictsReplayed);
      L["cache.restart_forward_runs"] = static_cast<double>(S.ForwardRuns);
    }
    RS.CacheHits += S.CacheHits;
    RS.CacheMisses += S.CacheMisses;
    RS.ForwardRuns += S.ForwardRuns;
    RS.BackwardRuns += S.BackwardRuns;
    SeenBatches.clear(); // batch ids restart with each new service
    if (Traced)
      ExplainS += foldTimelines(*H2.Svc, RestartJobs, false, SeenBatches, L);
    timed("service.shutdown", [&] { H2 = ServiceHandle(); });
  }
  R.WallS = secondsSince(Start) - ExplainS;
  fs::remove_all(CacheDir);

  L["tracer.cache_hits"] = static_cast<double>(Before.CacheHits + RS.CacheHits);
  L["tracer.cache_misses"] =
      static_cast<double>(Before.CacheMisses + RS.CacheMisses);
  L["tracer.forward_runs"] =
      static_cast<double>(Before.ForwardRuns + RS.ForwardRuns);
  L["tracer.backward_runs"] =
      static_cast<double>(Before.BackwardRuns + RS.BackwardRuns);
  double Iters = 0;
  for (const Answer &A : R.Answers)
    Iters += A.Iterations;
  L["tracer.iterations"] = Iters; // query phase
  L["tracer.unattributed_s"] = R.WallS - stageSum(L) - RegisterS -
                               RestartRegisterS - ReRegisterS -
                               L["cache.persist_s"];
}

//===----------------------------------------------------------------------===//
// Reference answers for seeds without an expected file
//===----------------------------------------------------------------------===//

/// Direct-driver answers for \p Qs, in their order, on the text after
/// \p Version edit rounds (0: the original), at \p Threads workers. \p Qs is in canonical order and
/// holds whole driver groups (every escape check of a program, or every
/// check of one type-state site). With \p Certify, every verdict is
/// certificate-checked.
struct ReferenceStats {
  unsigned CertificateFailures = 0; ///< queries whose certificate failed
  uint64_t CacheMisses = 0;         ///< forward runs the drivers computed
};

std::vector<Answer> directReference(const Inputs &In,
                                    const std::vector<Query> &Qs,
                                    unsigned Version, unsigned Threads,
                                    bool Certify, ReferenceStats &Stats) {
  tracer::TracerOptions Opts =
      tracer::TracerOptions::fromConfig(benchConfig(Threads));
  typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
  auto Has = [&](uint32_t Prog, uint8_t Client, uint32_t Site) {
    return std::any_of(Qs.begin(), Qs.end(), [&](const Query &Q) {
      return Q.Prog == Prog && Q.Client == Client && Q.Site == Site;
    });
  };
  std::vector<Answer> Out;
  for (uint32_t I = 0; I < In.Progs.size(); ++I) {
    const Program &Prog = In.Progs[I];
    bool WithEscape = Has(I, Escape, 0);
    std::vector<uint32_t> Sites;
    for (const auto &Entry : Prog.BySite)
      if (Has(I, Typestate, Entry.first))
        Sites.push_back(Entry.first);
    if (!WithEscape && Sites.empty())
      continue;
    ir::Program Parsed;
    const ir::Program *P = &Prog.B.P;
    std::unique_ptr<pointer::PointsToResult> EditedPt;
    const pointer::PointsToResult *Pt = Prog.Pt.get();
    if (Version) {
      std::string Err;
      if (!ir::parseProgram(Prog.text(Version), Parsed, Err)) {
        std::cerr << "edited program does not parse: " << Err << "\n";
        std::exit(2);
      }
      P = &Parsed;
      EditedPt = std::make_unique<pointer::PointsToResult>(
          pointer::runPointsTo(*P));
      Pt = EditedPt.get();
    }
    auto Run = [&](auto &A, const std::vector<ir::CheckId> &Checks) {
      using Analysis = std::decay_t<decltype(A)>;
      tracer::QueryDriver<Analysis> D(*P, A, Opts);
      std::vector<tracer::QueryOutcome> Outs = D.run(Checks);
      if (Certify) {
        tracer::CertificateChecker<Analysis> Checker(*P, A);
        std::vector<bool> Bad(Outs.size());
        for (const tracer::CertificateIssue &Issue :
             Checker.check(Outs, D.finalViableSets()).Issues)
          Bad[Issue.Query] = true;
        Stats.CertificateFailures +=
            static_cast<unsigned>(std::count(Bad.begin(), Bad.end(), true));
      }
      Stats.CacheMisses += D.stats().CacheMisses;
      for (const tracer::QueryOutcome &O : Outs)
        Out.push_back(answerOf(O));
    };
    if (WithEscape) {
      escape::EscapeAnalysis EA(*P);
      Run(EA, Prog.B.EscChecks);
    }
    // The query list (sites per check) comes from the original program;
    // an edit never adds a check or an allocation site.
    for (uint32_t Site : Sites) {
      typestate::TypestateAnalysis TA(*P, Spec, ir::AllocId(Site), *Pt);
      Run(TA, Prog.BySite.at(Site));
    }
  }
  return Out;
}

std::vector<Answer> selectClient(const Inputs &In,
                                 const std::vector<Answer> &All,
                                 uint8_t Client) {
  std::vector<Answer> Out;
  for (size_t I = 0; I < In.Queries.size(); ++I)
    if (In.Queries[I].Client == Client)
      Out.push_back(All[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// Shortest text that reads back as exactly \p V (every digit measured).
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Err == std::errc() ? std::string(Buf, End) : "0";
}

void printResult(bool Correct, unsigned Attempted, unsigned Failed,
                 const std::vector<Metric> &Ms) {
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
            << ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    std::cout << (I ? ", " : "") << "\"" << Ms[I].Name
              << "\": {\"value\": " << jsonNumber(Ms[I].Value)
              << ", \"unit\": \"" << Ms[I].Unit << "\"}";
  std::cout << "}}" << std::endl;
}

/// The per-layer ledger: every name, its unit, and the end-to-end metric
/// it should move. The order is the order of the printed table.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Moves;
};

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> Ms = {
      {"synth.generate_s", "s", "setup_s"},
      {"pointer.points_to_s", "s", "setup_s"},
      {"ir.print_s", "s", "setup_s"},
      {"service.register_s", "s", "setup_s"},
      {"tracer.drivers", "count", "wall_s"},
      {"tracer.driver_ctor_s", "s", "wall_s"},
      {"tracer.driver_teardown_s", "s", "wall_s"},
      {"tracer.plan_s", "s", "wall_s"},
      {"tracer.forward_s", "s", "wall_s"},
      {"tracer.classify_s", "s", "wall_s"},
      {"tracer.extract_s", "s", "wall_s"},
      {"tracer.backward_s", "s", "wall_s"},
      {"tracer.merge_s", "s", "wall_s"},
      {"tracer.unattributed_s", "s", "wall_s"},
      {"tracer.rounds", "count", "tracer.*_s"},
      {"tracer.iterations", "count", "tracer.*_s"},
      {"tracer.forward_runs", "count", "tracer.forward_s"},
      {"tracer.backward_runs", "count", "tracer.backward_s"},
      {"tracer.solver_calls", "count", "tracer.plan_s"},
      {"tracer.max_formula_cubes", "count", "tracer.backward_s"},
      {"tracer.cache_hits", "count", "query_p50_ms"},
      {"tracer.cache_misses", "count", "query_p50_ms"},
      {"tracer.cache_hit_ratio", "ratio", "queries_per_s"},
      {"dataflow.visits", "count", "tracer.forward_s"},
      {"dataflow.fixpoint_rounds", "count", "tracer.forward_s"},
      {"dataflow.states", "count", "tracer.forward_s"},
      {"meta.backward_steps", "count", "tracer.backward_s"},
      {"meta.step_cubes_p50", "count", "tracer.backward_s"},
      {"meta.step_cubes_p99", "count", "tracer.backward_s"},
      {"meta.segments_detected", "count", "tracer.backward_s"},
      {"meta.segment_steps_skipped", "count", "tracer.backward_s"},
      {"formula.product_calls", "count", "tracer.backward_s"},
      {"formula.product_cubes_p50", "count", "tracer.backward_s"},
      {"formula.product_cubes_p99", "count", "tracer.backward_s"},
      {"formula.dropk_calls", "count", "tracer.backward_s"},
      {"formula.dropk_cubes_dropped", "count", "tracer.backward_s"},
      {"tracer.mincostsat_calls", "count", "tracer.plan_s"},
      {"tracer.mincostsat_decisions", "count", "tracer.plan_s"},
      {"tracer.mincostsat_conflicts", "count", "tracer.plan_s"},
      {"support.cpu_s", "s", "wall_s"},
      {"support.parallel_eff", "ratio", "wall_s"},
      {"support.trace_overhead_s", "s", "wall_s"},
      {"service.queue_wait_ms_p50", "ms", "query_p99_ms"},
      {"service.queue_wait_ms_p99", "ms", "query_p99_ms"},
      {"service.batch_wait_ms_p50", "ms", "query_p99_ms"},
      {"service.batch_wait_ms_p99", "ms", "query_p99_ms"},
      {"service.run_ms_p50", "ms", "query_p99_ms"},
      {"service.run_ms_p99", "ms", "query_p99_ms"},
      {"service.batches", "count", "queries_per_s"},
      {"service.coalesced_jobs", "count", "queries_per_s"},
      {"service.batch_jobs_p50", "count", "queries_per_s"},
      {"service.reregister_s", "s", "edit_reverdict_s"},
      {"service.entries_migrated", "count", "edit_reverdict_s"},
      {"service.entries_invalidated", "count", "edit_reverdict_s"},
      {"service.verdicts_replayed", "count", "edit_reverdict_s"},
      {"service.fixpoints_amortized", "count", "edit_reverdict_s"},
      {"cache.persist_s", "s", "restart_reverdict_s"},
      {"cache.first_verdict_ms", "ms", "restart_reverdict_s"},
      {"cache.runs_loaded", "count", "restart_reverdict_s"},
      {"cache.verdicts_loaded", "count", "restart_reverdict_s"},
      {"cache.runs_skipped", "count", "restart_reverdict_s"},
      {"cache.snapshot_bytes", "bytes", "restart_reverdict_s"},
      {"cache.restart_forward_runs", "count", "restart_reverdict_s"},
  };
  return Ms;
}

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool WriteExpected = false;
  bool SelfTest = false;
  std::string Scratch = ".bench_build";
};

/// The queries a workload's query phase answers, in canonical order.
std::vector<Query> workloadQueries(const Inputs &In, Workload W) {
  if (W == Workload::ServiceEdit)
    return In.Queries;
  std::vector<Query> Qs;
  for (const Query &Q : In.Queries)
    if (Q.Client == Escape)
      Qs.push_back(Q);
  return Qs;
}

/// The outcome of checking every answer of a run.
struct Verification {
  std::string Oracle;
  unsigned Checked = 0;
  unsigned Failed = 0;
  std::vector<std::string> Notes;
};

/// The programs a seed without its own expected file still has expected
/// answers for: the default draws, answered in the seed-0 file.
std::vector<bool> defaultDraws(const Inputs &In, bool HaveSeed0File) {
  std::vector<bool> Out(In.Progs.size());
  for (size_t I = 0; I < In.Progs.size(); ++I)
    Out[I] = HaveSeed0File && In.Progs[I].DefaultDraw;
  return Out;
}

/// Checks every answer of every pass. The seed's expected file is the
/// oracle when one exists. Otherwise programs that are default draws (same
/// text and edit as under seed 0) are checked against the seed-0 file, and
/// the re-drawn ones against direct drivers run here, after the
/// measurement: certificate-checked on escape_serial, on the original text
/// and after every edit round on service_edit. The restarts must repeat
/// the last round's answers.
Verification verify(const Args &A, Workload W, const Inputs &In,
                    const std::vector<const PassResult *> &Passes) {
  Verification V;
  std::vector<Query> Qs = workloadQueries(In, W);
  bool Service = W == Workload::ServiceEdit;
  std::vector<bool> All(In.Progs.size(), true);
  Want QueryWant(Qs.size());
  std::vector<Want> EditWant(Service ? EditRounds : 0,
                             Want(In.Queries.size()));
  Expected File;
  std::string Path = expectedPath(W, A.Seed);
  if (loadExpected(Path, File)) {
    V.Oracle = Path;
    QueryWant.fill(File, "query", In, Qs, All);
    for (unsigned R = 0; R < EditWant.size(); ++R)
      EditWant[R].fill(File, editPhase(R + 1), In, In.Queries, All);
  } else {
    Expected Seed0;
    std::vector<bool> Known =
        defaultDraws(In, loadExpected(expectedPath(W, 0), Seed0));
    QueryWant.fill(Seed0, "query", In, Qs, Known);
    for (unsigned R = 0; R < EditWant.size(); ++R)
      EditWant[R].fill(Seed0, editPhase(R + 1), In, In.Queries, Known);
    V.Oracle = Service ? "seed-0 file + direct drivers"
                       : "seed-0 file + certified direct drivers";
    std::vector<Query> Redrawn;
    for (const Query &Q : Qs)
      if (!Known[Q.Prog])
        Redrawn.push_back(Q);
    ReferenceStats Stats;
    std::vector<Answer> Original = directReference(
        In, Redrawn, 0, workloadThreads(W), !Service, Stats);
    std::vector<std::vector<Answer>> Edited;
    for (unsigned R = 0; R < EditWant.size(); ++R)
      Edited.push_back(directReference(In, Redrawn, R + 1, workloadThreads(W),
                                       false, Stats));
    if (Stats.CertificateFailures)
      V.Notes.push_back(std::to_string(Stats.CertificateFailures) +
                        " reference verdicts failed their certificate");
    V.Failed += Stats.CertificateFailures;
    // Service's query list is Inputs::Queries, so one index serves both.
    for (size_t I = 0, K = 0; I < Qs.size(); ++I) {
      if (Known[Qs[I].Prog])
        continue;
      QueryWant.set(I, Original[K]);
      for (unsigned R = 0; R < EditWant.size(); ++R)
        EditWant[R].set(I, Edited[R][K]);
      ++K;
    }
  }
  for (const PassResult *R : Passes) {
    V.Checked += static_cast<unsigned>(Qs.size());
    V.Failed += countFailures("query", In, Qs, R->Answers, QueryWant, V.Notes);
    if (!Service)
      continue;
    for (unsigned Round = 0; Round < EditRounds; ++Round)
      V.Failed += countFailures(editPhase(Round + 1), In, In.Queries,
                                R->EditAnswers[Round], EditWant[Round],
                                V.Notes);
    for (const std::vector<Answer> &As : R->RestartAnswers)
      V.Failed += countFailures(editPhase(EditRounds), In, In.Queries, As,
                                EditWant.back(), V.Notes);
    V.Checked += static_cast<unsigned>((EditRounds + Restarts) *
                                       In.Queries.size());
  }
  return V;
}

/// The timings a run reports: each the fastest the run measured. The host
/// is shared, and other guests slow a pass by a fifth or more for seconds
/// at a time; the fastest repetition is the one such a burst missed, so
/// it moves with the program rather than with the neighbours.
struct Fastest {
  double WallS = 0;
  double QueryPhaseS = 0; ///< queries_per_s = queries / QueryPhaseS
  double P50Ms = 0, P99Ms = 0;
  double EditS = 0, RestartS = 0; ///< service_edit
};

Fastest fastest(Workload W, const std::vector<PassResult> &Passes) {
  auto Min = [](const std::vector<double> &V) {
    return *std::min_element(V.begin(), V.end());
  };
  Fastest F;
  if (W == Workload::EscapeSerial) {
    // Direct drivers are deterministic: every pass does the same work per
    // program and per query. A pass is the sum of its programs, so wall_s
    // sums each program's fastest pass, and each query's latency is its
    // fastest pass's.
    std::vector<double> ProgramS = Passes.front().ProgramS;
    std::vector<double> LatencyMs = Passes.front().LatencyMs;
    for (const PassResult &R : Passes) {
      for (size_t I = 0; I < ProgramS.size(); ++I)
        ProgramS[I] = std::min(ProgramS[I], R.ProgramS[I]);
      for (size_t I = 0; I < LatencyMs.size(); ++I)
        LatencyMs[I] = std::min(LatencyMs[I], R.LatencyMs[I]);
    }
    for (double S : ProgramS)
      F.WallS += S;
    F.QueryPhaseS = F.WallS;
    F.P50Ms = quantile(LatencyMs, 0.5);
    F.P99Ms = quantile(LatencyMs, 0.99);
    return F;
  }
  // service_edit: jobs share batches by timing, so a pass is one sample;
  // each figure is the best pass's, the edit and restart times the
  // fastest of every round and restart.
  std::vector<double> Wall, Query, P50, P99, EditS, RestartS;
  for (const PassResult &R : Passes) {
    Wall.push_back(R.WallS);
    Query.push_back(R.QueryPhaseS);
    P50.push_back(quantile(R.LatencyMs, 0.5));
    P99.push_back(quantile(R.LatencyMs, 0.99));
    EditS.insert(EditS.end(), R.EditS.begin(), R.EditS.end());
    RestartS.insert(RestartS.end(), R.RestartS.begin(), R.RestartS.end());
  }
  F.WallS = Min(Wall);
  F.QueryPhaseS = Min(Query);
  F.P50Ms = Min(P50);
  F.P99Ms = Min(P99);
  F.EditS = Min(EditS);
  F.RestartS = Min(RestartS);
  return F;
}

/// Fills the traced pass's ledger entries that are not per-driver sums.
void finishLedger(Workload W, PassResult &Traced, double CpuS,
                  double UntracedWallS, const std::vector<double> &GenS,
                  const std::vector<double> &PtS,
                  const std::vector<double> &PrintS,
                  const std::vector<double> &RegS) {
  readRegistry(Traced.L);
  Ledger &L = Traced.L;
  L["synth.generate_s"] = median(GenS);
  L["pointer.points_to_s"] = median(PtS);
  L["ir.print_s"] = median(PrintS);
  if (W == Workload::ServiceEdit) {
    support::MetricRegistry &Reg = support::MetricRegistry::global();
    L["service.register_s"] = median(RegS);
    // DriverStats stay inside the service; the registry has the same
    // counts.
    L["tracer.rounds"] =
        static_cast<double>(Reg.counter("optabs_rounds_total").value());
    L["tracer.solver_calls"] = L["tracer.mincostsat_calls"];
    L["tracer.max_formula_cubes"] = static_cast<double>(
        Reg.histogram("optabs_backward_step_cubes").max());
  }
  double Lookups = L["tracer.cache_hits"] + L["tracer.cache_misses"];
  L["tracer.cache_hit_ratio"] = Lookups ? L["tracer.cache_hits"] / Lookups : 0;
  L["support.cpu_s"] = CpuS;
  L["support.parallel_eff"] =
      Traced.WallS > 0 ? CpuS / (Traced.WallS * workloadThreads(W)) : 0;
  L["support.trace_overhead_s"] = Traced.WallS - UntracedWallS;
}

int runWorkload(const Args &A) {
  Workload W;
  if (!parseWorkload(A.Workload, W)) {
    std::cerr << "unknown workload '" << A.Workload
              << "' (escape_serial, service_edit)\n";
    return 2;
  }
  bool WithText = W == Workload::ServiceEdit;
  support::setMetricsEnabled(false);
  Spans.setEnabled(A.Trace);

  // Set-up, repeated for about a second (11 to 201 times): the median is
  // setup_s. One set-up takes milliseconds, so a few repetitions would
  // leave it at the mercy of one scheduling hiccup.
  std::vector<double> SetupS, GenS, PtS, PrintS, RegS;
  Inputs In;
  uint64_t SetupStart = nowNs();
  for (unsigned I = 0;
       I < 11 || (I < 201 && secondsSince(SetupStart) < 1.0); ++I) {
    SetupTimes T;
    Inputs Cur = makeInputs(A.Seed, WithText, T);
    if (WithText) {
      // Service construction and registration of the printed programs.
      std::string Dir =
          A.Scratch + "/perfbench-setup-" + std::to_string(::getpid());
      ServiceHandle H;
      double Register = 0;
      T.Register = timed("service.construct", [&] {
        H = startService(Cur, Dir, false, false, Register);
      });
      RegS.push_back(Register);
      H = ServiceHandle(); // shutdown is not set-up
      fs::remove_all(Dir);
    }
    SetupS.push_back(T.total());
    GenS.push_back(T.Generate);
    PtS.push_back(T.PointsTo);
    PrintS.push_back(T.Print);
    if (I == 0)
      In = std::move(Cur);
  }
  // The measured passes: untraced, whole passes, at least two, for as
  // close to --seconds as whole passes allow: another pass starts only if
  // it would end nearer to --seconds than stopping now.
  std::vector<PassResult> Passes;
  double Steal0 = stealSeconds();
  uint64_t Start = nowNs();
  for (;;) {
    PassResult R;
    if (W == Workload::ServiceEdit)
      runServicePass(In, A.Scratch, false, R);
    else
      runDirectPass(In, R);
    Passes.push_back(std::move(R));
    double Elapsed = secondsSince(Start);
    if (Passes.size() >= 2 &&
        Elapsed + 0.5 * Elapsed / Passes.size() >= A.Seconds)
      break;
  }
  double StealS = stealSeconds() - Steal0;

  // The traced pass (--trace 1): library metrics and spans on.
  PassResult Traced;
  if (A.Trace) {
    support::MetricRegistry::global().resetAll();
    support::setMetricsEnabled(true);
    double Cpu0 = cpuSeconds();
    if (W == Workload::ServiceEdit)
      runServicePass(In, A.Scratch, true, Traced);
    else
      runDirectPass(In, Traced);
    double CpuS = cpuSeconds() - Cpu0;
    support::setMetricsEnabled(false);
    finishLedger(W, Traced, CpuS, Passes.back().WallS, GenS, PtS, PrintS,
                 RegS);
  }
  std::vector<const PassResult *> All;
  for (const PassResult &R : Passes)
    All.push_back(&R);
  if (A.Trace)
    All.push_back(&Traced);
  Verification V = verify(A, W, In, All);

  std::vector<Query> Qs = workloadQueries(In, W);
  std::vector<double> Wall, EditS, RestartS, Decided;
  for (const PassResult &R : Passes) {
    Wall.push_back(R.WallS);
    EditS.insert(EditS.end(), R.EditS.begin(), R.EditS.end());
    RestartS.insert(RestartS.end(), R.RestartS.begin(), R.RestartS.end());
    unsigned N = 0;
    for (const Answer &X : R.Answers)
      N += X.Done && X.V != tracer::Verdict::Unresolved;
    Decided.push_back(static_cast<double>(N) / Qs.size());
  }
  Fastest F = fastest(W, Passes);

  unsigned Proven = 0, Impossible = 0;
  for (const Answer &X : Passes.front().Answers) {
    Proven += X.Done && X.V == tracer::Verdict::Proven;
    Impossible += X.Done && X.V == tracer::Verdict::Impossible;
  }
  std::cout << "workload " << workloadName(W) << " seed " << A.Seed
            << " passes " << Passes.size() << " threads "
            << workloadThreads(W) << " oracle " << V.Oracle << "\n";
  std::cout << "verdicts (first pass, query phase): " << Proven << " proven, "
            << Impossible << " impossible, "
            << Qs.size() - Proven - Impossible << " unresolved of "
            << Qs.size() << "\n";
  std::cout << "failed_frac " << static_cast<double>(V.Failed) / V.Checked
            << " (" << V.Failed << " of " << V.Checked
            << " checked answers)\n";
  std::cout << "pass wall_s:";
  for (double X : Wall)
    std::cout << " " << X;
  std::cout << "  (cpu steal during the passes: " << StealS << " s)\n";
  if (W == Workload::EscapeSerial)
    std::cout << "wall_s from each program's fastest pass: " << F.WallS
              << " (median pass " << median(Wall) << ")\n";

  if (W == Workload::ServiceEdit) {
    std::cout << "edit round s:";
    for (double X : EditS)
      std::cout << " " << X;
    std::cout << "\nrestart s:";
    for (double X : RestartS)
      std::cout << " " << X;
    std::cout << "\n";
  }
  for (const std::string &N : V.Notes)
    std::cout << "FAILED " << N << "\n";

  std::vector<Metric> Ms;
  if (!A.Trace) {
    // Direct drivers keep nothing between passes: after an edit of every
    // program, or a restart, answering every query again is a whole pass.
    bool Direct = W != Workload::ServiceEdit;
    Ms = {{"wall_s", F.WallS, "s"},
          {"edit_reverdict_s", Direct ? F.WallS : F.EditS, "s"},
          {"restart_reverdict_s", Direct ? F.WallS : F.RestartS, "s"},
          {"queries_per_s", Qs.size() / F.QueryPhaseS, "1/s"},
          {"query_p50_ms", F.P50Ms, "ms"},
          {"query_p99_ms", F.P99Ms, "ms"},
          {"decided_frac", median(Decided), "ratio"},
          {"setup_s", median(SetupS), "s"},
          // The first pass's high-water mark: later passes, and repeated
          // service restarts, reuse or fragment the heap depending on which
          // thread frees what.
          {"peak_rss_mb", Passes.front().PeakRssMb, "MB"}};
  } else {
    std::cout << "\nper-layer ledger (traced pass; wall_s " << Traced.WallS
              << " s traced vs " << Passes.back().WallS << " s untraced)\n";
    std::cout << std::left << std::setw(32) << "metric" << std::setw(24)
              << "value" << std::setw(8) << "unit" << "moves\n";
    for (const LayerMetric &LM : layerMetrics()) {
      auto It = Traced.L.find(LM.Name);
      double Value = It == Traced.L.end() ? 0 : It->second;
      std::cout << std::left << std::setw(32) << LM.Name << std::setw(24)
                << jsonNumber(Value) << std::setw(8) << LM.Unit << LM.Moves
                << "\n";
      Ms.push_back({LM.Name, Value, LM.Unit});
    }
    std::string Out = A.Scratch + "/perfbench-trace-" + A.Workload + ".json";
    if (Spans.writeChromeTrace(Out))
      std::cout << "chrome trace: " << Out << "\n";
  }
  printResult(V.Failed == 0, V.Checked, V.Failed, Ms);
  return 0;
}

//===----------------------------------------------------------------------===//
// --write-expected: generate the expected files of one seed
//===----------------------------------------------------------------------===//

bool sameAnswers(const std::vector<Answer> &X, const std::vector<Answer> &Y) {
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I < X.size(); ++I)
    if (!sameAnswer(X[I], Y[I]))
      return false;
  return true;
}

void writeExpectedFile(const std::string &Path, Workload W, uint64_t Seed,
                       const Inputs &In,
                       const std::vector<std::pair<std::string,
                                                   const std::vector<Answer> *>>
                           &Phases,
                       uint8_t ClientFilter) {
  std::ofstream OS(Path);
  OS << "# optabs benchmark expected verdicts: workload " << workloadName(W)
     << ", seed " << Seed << "\n"
     << "# Generated by optabs_perfbench --write-expected: certificate-checked "
        "(audit), identical at 1 and "
     << hardwareThreads() << " threads and through the service path.\n"
     << "# phase\tprogram\tclient\tcheck\tsite\tverdict\tcost\titerations\t"
        "cheapest_abstraction\n";
  for (const auto &[Phase, Answers] : Phases) {
    size_t K = 0;
    for (const Query &Q : In.Queries) {
      if (ClientFilter != 2 && Q.Client != ClientFilter)
        continue;
      const Answer &A = (*Answers)[K++];
      OS << queryKey(Phase, In, Q) << "\t" << tracer::verdictName(A.V) << "\t"
         << A.Cost << "\t" << A.Iterations << "\t" << A.Param << "\n";
    }
  }
}

int writeExpected(const Args &A) {
  SetupTimes T;
  Inputs In = makeInputs(A.Seed, true, T);
  unsigned N = hardwareThreads();
  // Ref[V]: answers on the text after V edit rounds (0: the original).
  std::vector<std::vector<Answer>> Ref;
  ReferenceStats Stats, Original;
  for (unsigned V = 0; V <= EditRounds; ++V) {
    std::cerr << "text version " << V << ": direct reference, audited, 1 "
              << "thread, then " << N << " threads...\n";
    Ref.push_back(directReference(In, In.Queries, V, 1, true, Stats));
    if (V == 0)
      Original = Stats;
    if (!sameAnswers(Ref.back(), directReference(In, In.Queries, V, N, false,
                                                 Stats))) {
      std::cerr << "FAIL: verdicts differ between 1 and " << N
                << " threads\n";
      return 1;
    }
  }
  if (Stats.CertificateFailures) {
    std::cerr << "FAIL: " << Stats.CertificateFailures
              << " certificate failures\n";
    return 1;
  }
  std::cerr << "service path...\n";
  PassResult R;
  runServicePass(In, A.Scratch, false, R);
  bool Same = sameAnswers(R.Answers, Ref[0]);
  for (unsigned Round = 1; Round <= EditRounds; ++Round)
    Same = Same && sameAnswers(R.EditAnswers[Round - 1], Ref[Round]);
  for (const std::vector<Answer> &As : R.RestartAnswers)
    Same = Same && sameAnswers(As, Ref.back());
  if (!Same) {
    std::cerr << "FAIL: service answers differ from the direct path\n";
    return 1;
  }
  fs::create_directories(ExpectedDir);
  const std::vector<Answer> &Orig1 = Ref[0];
  std::vector<Answer> Esc = selectClient(In, Orig1, Escape);
  writeExpectedFile(expectedPath(Workload::EscapeSerial, A.Seed),
                    Workload::EscapeSerial, A.Seed, In, {{"query", &Esc}},
                    Escape);
  std::vector<std::pair<std::string, const std::vector<Answer> *>> Phases = {
      {"query", &Orig1}};
  for (unsigned Round = 1; Round <= EditRounds; ++Round)
    Phases.push_back({editPhase(Round), &Ref[Round]});
  writeExpectedFile(expectedPath(Workload::ServiceEdit, A.Seed),
                    Workload::ServiceEdit, A.Seed, In, Phases, 2);
  unsigned Proven = 0, Impossible = 0;
  for (const Answer &X : Orig1) {
    Proven += X.V == tracer::Verdict::Proven;
    Impossible += X.V == tracer::Verdict::Impossible;
  }
  std::cout << "seed " << A.Seed << ": " << Orig1.size() << " queries, "
            << Proven << " proven, " << Impossible << " impossible, "
            << Orig1.size() - Proven - Impossible << " unresolved, "
            << Original.CacheMisses << " forward-cache misses (original "
            << "text, 1 thread); expected files written to " << ExpectedDir
            << "\n";
  return 0;
}

//===----------------------------------------------------------------------===//
// --self-test: the failure gate must bite
//===----------------------------------------------------------------------===//

int selfTest() {
  SetupTimes T;
  Inputs In = makeInputs(0, true, T);
  Expected Exp;
  if (!loadExpected(expectedPath(Workload::EscapeSerial, 0), Exp)) {
    std::cerr << "self-test: no seed-0 escape_serial expected file\n";
    return 2;
  }
  std::vector<Query> Qs = workloadQueries(In, Workload::EscapeSerial);
  std::vector<bool> All(In.Progs.size(), true);
  Want W(Qs.size());
  W.fill(Exp, "query", In, Qs, All);
  // Answers identical to the expected file.
  std::vector<Answer> As = W.A;
  bool Ok = std::count(W.Known.begin(), W.Known.end(), false) == 0;
  auto Expect = [&](const char *What, bool Cond) {
    std::cout << (Cond ? "ok   " : "FAIL ") << What << "\n";
    Ok = Ok && Cond;
  };
  std::vector<std::string> Notes;
  Expect("answers equal to the expected file count no failure",
         countFailures("query", In, Qs, As, W, Notes) == 0);

  // Flip one expected verdict: the gate must see failed_frac > 0.
  Expected Flipped = Exp;
  Answer &E = Flipped.at(queryKey("query", In, Qs.front()));
  E.V = E.V == tracer::Verdict::Proven ? tracer::Verdict::Impossible
                                       : tracer::Verdict::Proven;
  Want FlippedWant(Qs.size());
  FlippedWant.fill(Flipped, "query", In, Qs, All);
  unsigned FlipFailed = countFailures("query", In, Qs, As, FlippedWant, Notes);
  Expect("one flipped expected verdict gives failed_frac > 0",
         FlipFailed == 1 && static_cast<double>(FlipFailed) / Qs.size() > 0);

  // A service job that is not Done counts as failed: a real submission to
  // a closed session comes back Rejected.
  service::AnalysisService::Options SO;
  SO.Base = benchConfig(1);
  service::AnalysisService Svc(std::move(SO));
  const Program &P = In.Progs[Qs.front().Prog];
  service::RegisterResult Reg =
      Svc.registerProgram(P.B.Config.Name, P.Text);
  service::SessionSpec Spec;
  Spec.Program = P.B.Config.Name;
  Spec.Client = "escape";
  std::string Err;
  service::Session S = Svc.openSession(Spec, Err);
  service::Session Stale = S; // a copy: the service itself must refuse it
  S.close();
  service::QueryResult Res = Stale.submit({Qs.front().Check, 0, 0}).get();
  std::vector<Answer> WithReject = As;
  WithReject.front() = answerOf(Res);
  unsigned RejectFailed = countFailures("query", In, Qs, WithReject, W, Notes);
  Expect("a service job that is not done counts as failed",
         Reg.Ok && Res.Status != service::JobStatus::Done &&
             RejectFailed == 1);
  for (const std::string &N : Notes)
    std::cout << "  gate: " << N << "\n";
  std::cout << (Ok ? "self-test passed" : "self-test FAILED") << "\n";
  return Ok ? 0 : 1;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (K == "--write-expected")
      A.WriteExpected = true;
    else if (K == "--self-test")
      A.SelfTest = true;
    else if (K == "--workload") {
      if (!Value(A.Workload))
        return false;
    } else if (K == "--seed" || K == "--seconds" || K == "--trace") {
      if (!Value(V))
        return false;
      try {
        size_t Used = 0;
        if (K == "--seed")
          A.Seed = std::stoull(V, &Used);
        else if (K == "--seconds")
          A.Seconds = std::stod(V, &Used);
        else
          A.Trace = std::stoi(V, &Used) != 0;
        if (Used != V.size())
          return false;
      } catch (...) {
        return false;
      }
    } else if (K == "--scratch") {
      if (!Value(A.Scratch))
        return false;
    } else {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::cerr << "usage: optabs_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 | --write-expected --seed N | --self-test\n";
    return 2;
  }
  fs::create_directories(A.Scratch);
  if (A.SelfTest)
    return selfTest();
  if (A.WriteExpected)
    return writeExpected(A);
  return runWorkload(A);
}
