//===- bench_micro.cpp - Micro-benchmarks of the core operations --------------===//
//
// google-benchmark suite for the building blocks whose costs drive the
// end-to-end numbers: DNF manipulation (product, simplify, semantic
// normalization), the min-cost SAT solver, the points-to substrate, the
// parametric forward analysis, trace extraction, and one full backward
// meta-analysis pass.
//
//===----------------------------------------------------------------------===//

#include "benchmark/benchmark.h"

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "formula/Normalize.h"
#include "meta/Backward.h"
#include "pointer/PointsTo.h"
#include "reporting/Harness.h"
#include "support/Prng.h"
#include "tracer/MinCostSat.h"

using namespace optabs;
using formula::Cube;
using formula::Dnf;
using formula::Lit;

namespace {

Dnf randomDnf(Prng &Rng, unsigned NumCubes, unsigned NumAtoms,
              unsigned CubeLen) {
  std::vector<Cube> Cubes;
  while (Cubes.size() < NumCubes) {
    std::vector<Lit> Lits;
    for (unsigned I = 0; I < CubeLen; ++I) {
      auto A = static_cast<formula::AtomId>(Rng.nextBelow(NumAtoms));
      Lits.push_back(Rng.chance(1, 4) ? Lit::neg(A) : Lit::pos(A));
    }
    if (auto C = Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return Dnf::fromCubes(std::move(Cubes));
}

/// Escape-shaped formula: \p NumCubes cubes of about \p CubeLen literals
/// over three-valued locations (atom = 3 * location + value), drawn as
/// one-location variants of a base cube so refinement has negatives to
/// rewrite and the merge rules have partners to find, as in the
/// thread-escape client's step formulas (about 14 cubes of 29 literals).
Dnf escapeShapedDnf(Prng &Rng, unsigned NumCubes, unsigned CubeLen) {
  auto Constrain = [&Rng](unsigned Loc, std::vector<Lit> &Out) {
    auto V = static_cast<formula::AtomId>(Rng.nextBelow(3));
    uint64_t Kind = Rng.nextBelow(20);
    if (Kind < 12) {
      Out.push_back(Lit::pos(3 * Loc + V));
      return;
    }
    Out.push_back(Lit::neg(3 * Loc + V));
    if (Kind >= 17) // two excluded values: refinement makes it positive
      Out.push_back(Lit::neg(3 * Loc + (V + 1) % 3));
  };
  std::vector<Lit> Base;
  for (unsigned Loc = 0; Base.size() < CubeLen; ++Loc)
    Constrain(Loc, Base);
  std::vector<Cube> Cubes;
  while (Cubes.size() < NumCubes) {
    auto Loc = static_cast<unsigned>(Rng.nextBelow(CubeLen));
    std::vector<Lit> Lits;
    for (Lit L : Base)
      if (L.atom() / 3 != Loc)
        Lits.push_back(L);
    Constrain(Loc, Lits);
    if (auto C = Cube::make(std::move(Lits)))
      Cubes.push_back(std::move(*C));
  }
  return Dnf::fromCubes(std::move(Cubes));
}

std::optional<formula::LocationInfo> threeValued(formula::AtomId A) {
  formula::LocationInfo Info;
  uint32_t Idx = A / 3;
  for (uint32_t V = 0; V < 3; ++V)
    Info.Values.push_back(Idx * 3 + V);
  return Info;
}

void BM_DnfProduct(benchmark::State &State) {
  Prng Rng(1);
  Dnf A = randomDnf(Rng, 16, 24, 3);
  Dnf B = randomDnf(Rng, 16, 24, 3);
  formula::AtomEval Eval = [](formula::AtomId) { return false; };
  for (auto _ : State) {
    Dnf P = Dnf::product(A, B, 0, Eval);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_DnfProduct);

void BM_DnfSimplify(benchmark::State &State) {
  Prng Rng(2);
  Dnf D = randomDnf(Rng, 64, 16, 4);
  for (auto _ : State) {
    Dnf Copy = D;
    Copy.sortBySize();
    Copy.simplify();
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_DnfSimplify);

void BM_SemanticNormalize(benchmark::State &State) {
  // Short cubes: 32 cubes of at most 4 literals over 8 three-valued
  // locations.
  formula::LocationTable Locs(threeValued);
  Prng Rng(3);
  Dnf D = randomDnf(Rng, 32, 24, 4);
  for (auto _ : State) {
    Dnf Copy = D;
    formula::semanticNormalize(Copy, nullptr, Locs);
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_SemanticNormalize);

void BM_SemanticNormalizeEscapeShaped(benchmark::State &State) {
  // The thread-escape client's typical normalize input: about 14 cubes of
  // about 29 literals.
  formula::LocationTable Locs(threeValued);
  Prng Rng(5);
  Dnf D = escapeShapedDnf(Rng, 14, 29);
  for (auto _ : State) {
    Dnf Copy = D;
    formula::semanticNormalize(Copy, nullptr, Locs);
    benchmark::DoNotOptimize(Copy);
  }
}
BENCHMARK(BM_SemanticNormalizeEscapeShaped);

void BM_RefineCube(benchmark::State &State) {
  // Location refinement of 14 escape-shaped cubes of about 29 literals
  // (timing includes copying each cube, as semanticNormalize's callers
  // hand it a fresh formula).
  formula::LocationTable Locs(threeValued);
  Prng Rng(6);
  Dnf D = escapeShapedDnf(Rng, 14, 29);
  for (auto _ : State) {
    for (const Cube &C : D.cubes()) {
      Cube Copy = C;
      benchmark::DoNotOptimize(formula::refineCubeByLocations(Copy, Locs));
      benchmark::DoNotOptimize(Copy);
    }
  }
}
BENCHMARK(BM_RefineCube);

void BM_MinCostSolve(benchmark::State &State) {
  Prng Rng(4);
  tracer::Cnf F;
  for (unsigned I = 0; I < 40; ++I) {
    std::vector<tracer::BoolLit> Clause;
    for (unsigned J = 0; J < 3; ++J)
      Clause.push_back({static_cast<uint32_t>(Rng.nextBelow(64)),
                        Rng.chance(3, 4)});
    F.addClause(std::move(Clause));
  }
  for (auto _ : State) {
    auto Model = tracer::solveMinCost(F, 64);
    benchmark::DoNotOptimize(Model);
  }
}
BENCHMARK(BM_MinCostSolve);

void BM_GenerateBenchmark(benchmark::State &State) {
  const auto &Config = synth::paperSuite()[0];
  for (auto _ : State) {
    synth::Benchmark B = synth::generate(Config);
    benchmark::DoNotOptimize(B.P.numCommands());
  }
}
BENCHMARK(BM_GenerateBenchmark);

void BM_PointsTo(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[2]); // hedc
  for (auto _ : State) {
    auto R = pointer::runPointsTo(B.P);
    benchmark::DoNotOptimize(R.reachableCommands().size());
  }
}
BENCHMARK(BM_PointsTo);

void BM_ForwardEscape(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]); // tsp
  escape::EscapeAnalysis A(B.P);
  std::vector<bool> Bits(B.P.numAllocs(), false);
  escape::EscParam Prm = A.paramFromBits(Bits); // cheapest abstraction
  for (auto _ : State) {
    dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
    FA.run(A.initialState());
    benchmark::DoNotOptimize(FA.stats().NumStates);
  }
}
BENCHMARK(BM_ForwardEscape);

void BM_TraceExtractAndBackward(benchmark::State &State) {
  synth::Benchmark B = synth::generate(synth::paperSuite()[0]);
  escape::EscapeAnalysis A(B.P);
  escape::EscParam Prm =
      A.paramFromBits(std::vector<bool>(B.P.numAllocs(), false));
  dataflow::ForwardAnalysis<escape::EscapeAnalysis> FA(B.P, A, Prm);
  FA.run(A.initialState());
  // Find one failing query to exercise extraction + meta-analysis.
  ir::CheckId Check;
  std::optional<escape::EscState> Bad;
  for (ir::CheckId C : B.EscChecks) {
    formula::Dnf NotQ = A.notQ(C);
    for (const auto &D : FA.statesAtCheck(C)) {
      if (NotQ.eval(
              [&](formula::AtomId At) { return A.evalAtom(At, Prm, D); })) {
        Check = C;
        Bad = D;
        break;
      }
    }
    if (Bad)
      break;
  }
  if (!Bad) {
    State.SkipWithError("no failing query found");
    return;
  }
  meta::BackwardMetaAnalysis<escape::EscapeAnalysis> Bwd(B.P, A);
  for (auto _ : State) {
    auto T = FA.extractTrace(Check, *Bad);
    auto States = FA.replay(*T, A.initialState());
    auto F = Bwd.run(*T, Prm, States, A.notQ(Check));
    benchmark::DoNotOptimize(F->size());
  }
}
BENCHMARK(BM_TraceExtractAndBackward);

} // namespace

BENCHMARK_MAIN();
