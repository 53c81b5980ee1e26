//===- NormalizeTest.cpp - Unit tests for semantic DNF normalization ----------===//
//
// The normalization rules must (a) preserve the meaning of formulas over
// all *consistent* assignments (one value per location) and (b) actually
// recover the compact forms the paper's hand-written transfer functions
// produce - that is what makes the k-beam behave as in Figures 1 and 6.
//
//===----------------------------------------------------------------------===//

#include "formula/Normalize.h"

#include "EscapeShapedFormulas.h"
#include "support/Prng.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace {

using namespace optabs::formula;
using optabs::Prng;

// Atom universe: 4 locations x 3 values; atom id = loc * 3 + value.
constexpr unsigned NumLocs = 4;
constexpr unsigned NumVals = 3;

std::optional<LocationInfo> locOf(AtomId A) {
  LocationInfo Info;
  uint32_t Loc = A / NumVals;
  for (uint32_t V = 0; V < NumVals; ++V)
    Info.Values.push_back(Loc * NumVals + V);
  return Info;
}

/// Location refinement of a copy of \p C; nullopt when unsatisfiable.
std::optional<Cube> refine(Cube C, LocationTable &Locs) {
  if (!refineCubeByLocations(C, Locs))
    return std::nullopt;
  return C;
}

std::optional<Cube> refine(Cube C) {
  LocationTable Locs(locOf);
  return refine(std::move(C), Locs);
}

void normalize(Dnf &D) {
  LocationTable Locs(locOf);
  semanticNormalize(D, nullptr, Locs);
}

/// Enumerates all consistent assignments (one value per location).
template <typename FnT> void forAllAssignments(FnT Fn) {
  unsigned Total = 1;
  for (unsigned I = 0; I < NumLocs; ++I)
    Total *= NumVals;
  for (unsigned Code = 0; Code < Total; ++Code) {
    unsigned Vals[NumLocs];
    unsigned C = Code;
    for (unsigned I = 0; I < NumLocs; ++I) {
      Vals[I] = C % NumVals;
      C /= NumVals;
    }
    AtomEval Eval = [&Vals](AtomId A) {
      return Vals[A / NumVals] == A % NumVals;
    };
    Fn(Eval);
  }
}

Cube cube(std::initializer_list<Lit> Lits) {
  auto C = Cube::make(Lits);
  EXPECT_TRUE(C.has_value());
  return *C;
}

Lit at(unsigned Loc, unsigned Val) { return Lit::pos(Loc * NumVals + Val); }
Lit nat(unsigned Loc, unsigned Val) { return Lit::neg(Loc * NumVals + Val); }

TEST(RefineCube, TwoPositiveValuesContradict) {
  EXPECT_FALSE(refine(cube({at(0, 0), at(0, 1)})).has_value());
}

TEST(RefineCube, PositiveDropsNegativesOfSameLocation) {
  auto R = refine(cube({at(0, 0), nat(0, 1), nat(0, 2)}));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->size(), 1u);
  EXPECT_EQ(R->literals()[0], at(0, 0));
}

TEST(RefineCube, ExhaustiveNegativesBecomePositive) {
  auto R = refine(cube({nat(1, 0), nat(1, 2)}));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->size(), 1u);
  EXPECT_EQ(R->literals()[0], at(1, 1));
}

TEST(RefineCube, AllNegativesContradict) {
  EXPECT_FALSE(refine(cube({nat(2, 0), nat(2, 1), nat(2, 2)})).has_value());
}

TEST(RefineCube, IndependentAtomsPassThrough) {
  LocationTable NoLoc;
  Cube C = cube({Lit::pos(1), Lit::neg(2)});
  auto R = refine(C, NoLoc);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, C);
}

TEST(SemanticNormalize, ValueCompleteMerge) {
  // (x /\ loc0=0) \/ (x /\ loc0=1) \/ (x /\ loc0=2)  ==>  x
  Lit X = at(3, 1);
  Dnf D = Dnf::fromCubes({cube({X, at(0, 0)}), cube({X, at(0, 1)}),
                          cube({X, at(0, 2)})});
  normalize(D);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({X}));
}

TEST(SemanticNormalize, ComplementaryMergeWithoutLocations) {
  // (a /\ b) \/ (a /\ !b) ==> a, for independent atoms.
  LocationTable NoLoc;
  Dnf D = Dnf::fromCubes({cube({Lit::pos(9), Lit::pos(10)}),
                          cube({Lit::pos(9), Lit::neg(10)})});
  semanticNormalize(D, nullptr, NoLoc);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({Lit::pos(9)}));
}

TEST(SemanticNormalize, RecoversFigure6Formula) {
  // The fragmented mechanical wp of u.E over "v.f = u" must merge back to
  //   u.E \/ (v.E /\ u.L) \/ (v.L /\ f.E /\ u.L).
  // Locations: 0 = v, 1 = u, 2 = f; values: 0 = N, 1 = L, 2 = E.
  auto V = [](unsigned Val) { return at(0, Val); };
  auto U = [](unsigned Val) { return at(1, Val); };
  auto F = [](unsigned Val) { return at(2, Val); };
  Dnf D = Dnf::fromCubes({
      cube({V(0), U(2)}),                 // v.N /\ u.E
      cube({V(2), U(1)}),                 // v.E /\ u.L       (esc case)
      cube({V(2), nat(1, 1), U(2)}),      // v.E /\ !u.L /\ u.E
      cube({V(1), F(2), U(2)}),           // v.L /\ f.E /\ u.E
      cube({V(1), F(0), U(2)}),           // v.L /\ f.N /\ u.E
      cube({V(1), F(1), U(2)}),           // v.L /\ f.L /\ u.E
      cube({V(1), F(2), U(1)}),           // v.L /\ f.E /\ u.L (esc case)
  });
  normalize(D);
  D.sortBySize();
  ASSERT_EQ(D.size(), 3u);
  EXPECT_EQ(D.cubes()[0], cube({U(2)}));
  EXPECT_EQ(D.cubes()[1], cube({V(2), U(1)}));
  EXPECT_EQ(D.cubes()[2], cube({V(1), U(1), F(2)}));
}

/// Property: normalization preserves meaning over consistent assignments,
/// on small formulas (every assignment enumerated) and on escape-shaped
/// wide ones (assignments sampled near the cubes).
TEST(SemanticNormalize, PreservesMeaningOnRandomFormulas) {
  Prng Rng(0x5EED);
  for (int Round = 0; Round < 300; ++Round) {
    std::vector<Cube> Cubes;
    unsigned N = 1 + Rng.nextBelow(8);
    for (unsigned I = 0; I < N; ++I) {
      std::vector<Lit> Lits;
      unsigned Len = 1 + Rng.nextBelow(4);
      for (unsigned J = 0; J < Len; ++J) {
        AtomId A = static_cast<AtomId>(Rng.nextBelow(NumLocs * NumVals));
        Lits.push_back(Rng.chance(1, 3) ? Lit::neg(A) : Lit::pos(A));
      }
      if (auto C = Cube::make(std::move(Lits)))
        Cubes.push_back(std::move(*C));
    }
    Dnf Original = Dnf::fromCubes(Cubes);
    Dnf Normalized = Original;
    normalize(Normalized);
    forAllAssignments([&](const AtomEval &Eval) {
      ASSERT_EQ(Original.eval(Eval), Normalized.eval(Eval))
          << "round " << Round << ": meaning changed";
    });
    // Normalization never grows the formula.
    EXPECT_LE(Normalized.size(), Original.size());
  }

  // Wide cubes take LitVec's heap path and refine across many locations
  // at once; count the rounds in which refinement or merging did work so
  // the sweep is known to reach those rules.
  using Shape = optabs::testutil::EscapeShape;
  LocationTable Wide(Shape::location);
  unsigned Shrunk = 0, Rewritten = 0;
  for (int Round = 0; Round < 40; ++Round) {
    Dnf Original = Shape::formula(Rng);
    Dnf Normalized = Original;
    semanticNormalize(Normalized, nullptr, Wide);
    EXPECT_LE(Normalized.size(), Original.size());
    Shrunk += Normalized.size() < Original.size();
    for (const Cube &C : Normalized.cubes())
      Rewritten += std::find(Original.cubes().begin(), Original.cubes().end(),
                             C) == Original.cubes().end();
    for (int Sample = 0; Sample < 2000; ++Sample) {
      std::vector<unsigned> Vals = Shape::assignmentNear(
          Rng, Sample % 2 ? Original : Normalized);
      AtomEval Eval = Shape::evalOf(Vals);
      ASSERT_EQ(Original.eval(Eval), Normalized.eval(Eval))
          << "wide round " << Round << ", sample " << Sample
          << ": meaning changed";
    }
  }
  EXPECT_GT(Shrunk, 0u);
  EXPECT_GT(Rewritten, 0u);
}

TEST(SemanticNormalize, TwoValuedLocations) {
  // Sites have only {L, E}: negatives normalize to the other positive.
  LocationTable TwoVal([](AtomId A) {
    LocationInfo Info;
    uint32_t Loc = A / 2;
    Info.Values = {Loc * 2, Loc * 2 + 1};
    return std::optional<LocationInfo>(Info);
  });
  Dnf D = Dnf::fromCubes({cube({Lit::neg(0)})}); // !h.L ==> h.E
  semanticNormalize(D, nullptr, TwoVal);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D.cubes()[0], cube({Lit::pos(1)}));
}

} // namespace
