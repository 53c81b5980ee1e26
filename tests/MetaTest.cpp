//===- MetaTest.cpp - Unit tests for the backward meta-analysis driver --------===//

#include "meta/Backward.h"

#include "dataflow/Forward.h"
#include "escape/Escape.h"
#include "ir/Parser.h"
#include "pointer/PointsTo.h"
#include "synth/Generator.h"
#include "tracer/QueryDriver.h"
#include "typestate/Typestate.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <map>

namespace {

using namespace optabs;
using namespace optabs::ir;
using escape::EscapeAnalysis;
using escape::EscParam;
using escape::EscState;

Program parse(const char *Src) {
  Program P;
  std::string Error;
  bool Ok = parseProgram(Src, P, Error);
  EXPECT_TRUE(Ok) << Error;
  return P;
}

struct Fixture {
  Program P;
  std::unique_ptr<EscapeAnalysis> A;
  std::unique_ptr<dataflow::ForwardAnalysis<EscapeAnalysis>> Fwd;
  EscParam Prm;
  ir::Trace T;
  std::vector<EscState> States;
  formula::Dnf NotQ;

  explicit Fixture(const char *Src) {
    P = parse(Src);
    A = std::make_unique<EscapeAnalysis>(P);
    Prm = A->paramFromBits({});
    Fwd = std::make_unique<dataflow::ForwardAnalysis<EscapeAnalysis>>(
        P, *A, Prm);
    Fwd->run(A->initialState());
    NotQ = A->notQ(CheckId(0));
    for (const auto &D : Fwd->statesAtCheck(CheckId(0))) {
      if (NotQ.eval([&](formula::AtomId At) {
            return A->evalAtom(At, Prm, D);
          })) {
        auto Trace = Fwd->extractTrace(CheckId(0), D);
        EXPECT_TRUE(Trace.has_value());
        T = *Trace;
        States = Fwd->replay(T, A->initialState());
        break;
      }
    }
    EXPECT_FALSE(T.empty());
  }
};

const char *Fig6 = R"(
  proc main { u = new h1; v = new h2; v.f = u; check(u); }
)";

TEST(Meta, ProjectToParamsKeepsOnlyParamAtoms) {
  Fixture F(Fig6);
  meta::BackwardMetaAnalysis<EscapeAnalysis> Bwd(F.P, *F.A);
  auto Formula = Bwd.run(F.T, F.Prm, F.States, F.NotQ);
  ASSERT_TRUE(Formula.has_value());
  formula::Dnf Proj =
      Bwd.projectToParams(*Formula, F.Prm, F.A->initialState());
  for (const formula::Cube &C : Proj.cubes())
    for (formula::Lit L : C.literals())
      EXPECT_TRUE(F.A->isParamAtom(L.atom()));
  // The current abstraction (all-E) must be in the projected set.
  EXPECT_TRUE(Proj.eval([&](formula::AtomId At) {
    return F.A->evalAtom(At, F.Prm, F.A->initialState());
  }));
}

TEST(Meta, ProjectionDropsCubesInfeasibleAtInitialState) {
  // A cube demanding u.E at d_I (all-N) is infeasible and must vanish.
  Fixture F(Fig6);
  meta::BackwardMetaAnalysis<EscapeAnalysis> Bwd(F.P, *F.A);
  VarId U = F.P.findVar("u");
  formula::Dnf D = formula::Dnf::fromCubes(
      {*formula::Cube::make(
           {formula::Lit::pos(EscapeAnalysis::atomVar(U, escape::AbsVal::E)),
            formula::Lit::pos(EscapeAnalysis::atomSite(
                F.P.findAlloc("h1"), escape::AbsVal::L))}),
       *formula::Cube::make({formula::Lit::pos(EscapeAnalysis::atomSite(
           F.P.findAlloc("h2"), escape::AbsVal::E))})});
  formula::Dnf Proj = Bwd.projectToParams(D, F.Prm, F.A->initialState());
  ASSERT_EQ(Proj.size(), 1u);
  EXPECT_EQ(Proj.cubes()[0].size(), 1u);
}

TEST(Meta, IdentitySkipDoesNotChangeResults) {
  Fixture F(Fig6);
  meta::BackwardConfig WithSkip, WithoutSkip;
  WithSkip.SkipIdentitySteps = true;
  WithoutSkip.SkipIdentitySteps = false;
  meta::BackwardMetaAnalysis<EscapeAnalysis> B1(F.P, *F.A, WithSkip);
  meta::BackwardMetaAnalysis<EscapeAnalysis> B2(F.P, *F.A, WithoutSkip);
  auto F1 = B1.run(F.T, F.Prm, F.States, F.NotQ);
  auto F2 = B2.run(F.T, F.Prm, F.States, F.NotQ);
  ASSERT_TRUE(F1.has_value() && F2.has_value());
  auto Name = [&](formula::AtomId A) { return F.A->atomName(A); };
  EXPECT_EQ(F1->toString(Name), F2->toString(Name));
}

TEST(Meta, ObserverSeesEveryStep) {
  Fixture F(Fig6);
  meta::BackwardConfig Config;
  std::vector<size_t> Steps;
  Config.StepObserver = [&](size_t I, const Command &,
                            const formula::Dnf &) { Steps.push_back(I); };
  meta::BackwardMetaAnalysis<EscapeAnalysis> Bwd(F.P, *F.A, Config);
  auto Formula = Bwd.run(F.T, F.Prm, F.States, F.NotQ);
  ASSERT_TRUE(Formula.has_value());
  ASSERT_EQ(Steps.size(), F.T.size());
  // Steps are observed back to front.
  for (size_t I = 0; I < Steps.size(); ++I)
    EXPECT_EQ(Steps[I], F.T.size() - 1 - I);
}

TEST(Meta, KZeroTracksMoreCubesThanKOne) {
  Fixture F(Fig6);
  meta::BackwardConfig K1, K0;
  K1.K = 1;
  K0.K = 0;
  meta::BackwardMetaAnalysis<EscapeAnalysis> B1(F.P, *F.A, K1);
  meta::BackwardMetaAnalysis<EscapeAnalysis> B0(F.P, *F.A, K0);
  ASSERT_TRUE(B1.run(F.T, F.Prm, F.States, F.NotQ).has_value());
  ASSERT_TRUE(B0.run(F.T, F.Prm, F.States, F.NotQ).has_value());
  EXPECT_LE(B1.stats().MaxCubes, 1u);
  EXPECT_GT(B0.stats().MaxCubes, 1u);
}

TEST(Meta, LongIdentityTailIsCheap) {
  // A long stretch of commands unrelated to the query: every backward step
  // over them is the identity, and the result still projects to h1.E.
  std::string Src = "global g;\nproc main {\n  u = new h1;\n";
  for (int I = 0; I < 200; ++I)
    Src += "  n" + std::to_string(I) + " = new hx" + std::to_string(I % 7) +
           ";\n";
  Src += "  check(u);\n}\n";
  Fixture F(Src.c_str());
  meta::BackwardMetaAnalysis<EscapeAnalysis> Bwd(F.P, *F.A);
  auto Formula = Bwd.run(F.T, F.Prm, F.States, F.NotQ);
  ASSERT_TRUE(Formula.has_value());
  formula::Dnf Proj =
      Bwd.projectToParams(*Formula, F.Prm, F.A->initialState());
  auto Name = [&](formula::AtomId A) { return F.A->atomName(A); };
  EXPECT_EQ(Proj.toString(Name), "h1.E");
  EXPECT_EQ(Bwd.stats().Steps, F.T.size());
}

TEST(Meta, FormulaToStringUsesClientAtomNames) {
  Fixture F(Fig6);
  meta::BackwardMetaAnalysis<EscapeAnalysis> Bwd(F.P, *F.A);
  formula::Dnf D = formula::Dnf::singleLit(formula::Lit::pos(
      EscapeAnalysis::atomSite(F.P.findAlloc("h1"), escape::AbsVal::L)));
  EXPECT_EQ(Bwd.formulaToString(D), "h1.L");
}

/// Folds one value into a running 64-bit digest (splitmix64 finalizer).
uint64_t fold(uint64_t H, uint64_t X) {
  X += H + 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Digest of everything the backward kernel decides on a handful of small
/// synthetic programs: every step formula of every backward run (cube
/// order and raw literals, in observation order) and every projected
/// Unviable set, read back as the cumulative learned-clause signature of
/// the event trace's "step" events. Both clients run at one worker thread.
uint64_t stepFormulaDigest() {
  std::string TracePath = ::testing::TempDir() + "meta_step_digest.jsonl";
  std::remove(TracePath.c_str());
  uint64_t H = 0;
  tracer::TracerOptions Opts;
  Opts.Cfg.Execution.NumThreads = 1;
  Opts.Cfg.Execution.MaxItersPerQuery = 16;
  Opts.Cfg.Observability.EventTracePath = TracePath;
  Opts.BackwardStepObserver = [&H](size_t I, const Command &,
                                   const formula::Dnf &F) {
    H = fold(H, I);
    H = fold(H, F.size());
    for (const formula::Cube &C : F.cubes()) {
      H = fold(H, C.size());
      for (formula::Lit L : C.literals())
        H = fold(H, L.raw());
    }
  };
  for (uint64_t Seed : {11u, 12u, 13u, 14u}) {
    synth::BenchConfig Config;
    Config.Name = "digest" + std::to_string(Seed);
    Config.Seed = Seed;
    Config.AppProcs = 4;
    Config.LibProcs = 3;
    Config.UnitsPerAppProc = 4;
    Config.ConfuserMaxWays = 10;
    synth::Benchmark B = synth::generate(Config);

    escape::EscapeAnalysis EA(B.P);
    tracer::QueryDriver<EscapeAnalysis> EscDriver(B.P, EA, Opts);
    EscDriver.run(B.EscChecks);

    pointer::PointsToResult Pt = pointer::runPointsTo(B.P);
    typestate::TypestateSpec Spec = typestate::TypestateSpec::stress();
    std::map<uint32_t, std::vector<CheckId>> BySite;
    for (CheckId Check : B.TsChecks)
      Pt.pointsTo(B.P.checkSite(Check).Var).forEach([&](size_t Site) {
        BySite[static_cast<uint32_t>(Site)].push_back(Check);
      });
    for (auto &[Site, Checks] : BySite) {
      typestate::TypestateAnalysis TA(B.P, Spec, AllocId(Site), Pt);
      tracer::QueryDriver<typestate::TypestateAnalysis> TsDriver(B.P, TA,
                                                                 Opts);
      TsDriver.run(Checks);
    }
  }
  std::ifstream In(TracePath);
  std::string Line;
  const std::string Key = "\"learned_sig\":\"";
  size_t Steps = 0;
  while (std::getline(In, Line)) {
    size_t At = Line.find(Key);
    if (At == std::string::npos)
      continue;
    H = fold(H, std::stoull(Line.substr(At + Key.size(), 18), nullptr, 16));
    ++Steps;
  }
  EXPECT_GT(Steps, 0u) << "event trace has no step events";
  std::remove(TracePath.c_str());
  return H;
}

TEST(Meta, StepFormulasMatchRecordedDigest) {
  // Pins the backward kernel bit for bit: any change to wp substitution,
  // semantic normalization, dropk or projection that alters a single step
  // formula (even only its cube order) changes this digest. Verdict-level
  // tests would not notice such a change.
  EXPECT_EQ(stepFormulaDigest(), 0x2aea7249fec5aaccULL);
}

} // namespace
