//===- EscapeShapedFormulas.h - Wide random formulas for tests ---*- C++ -*-===//
//
// Random DNF formulas shaped like the thread-escape client's step formulas:
// 8-20 cubes of 20-60 literals over a universe of mixed two-valued
// (allocation sites: L/E) and three-valued (variables and fields: N/L/E)
// locations. Cubes are drawn as a few base cubes plus one- and
// two-location variants of them, so complementary and value-complete
// merges have partners to find. Assignments are sampled near the cubes
// (satisfy one cube, then perturb a location or two), because a uniform
// assignment satisfies a 30-literal cube with probability about 3^-30.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TESTS_ESCAPESHAPEDFORMULAS_H
#define OPTABS_TESTS_ESCAPESHAPEDFORMULAS_H

#include "formula/Normalize.h"
#include "support/Prng.h"

#include <vector>

namespace optabs {
namespace testutil {

/// Location l owns atoms 3l .. 3l + numValues(l) - 1; the first TwoValued
/// locations have two values, the rest three.
struct EscapeShape {
  static constexpr unsigned NumLocs = 56;
  static constexpr unsigned TwoValued = 16;

  static unsigned numValues(unsigned Loc) { return Loc < TwoValued ? 2 : 3; }
  static formula::AtomId atom(unsigned Loc, unsigned Val) {
    return Loc * 3 + Val;
  }

  static std::optional<formula::LocationInfo> location(formula::AtomId A) {
    formula::LocationInfo Info;
    unsigned Loc = A / 3;
    for (unsigned V = 0; V < numValues(Loc); ++V)
      Info.Values.push_back(atom(Loc, V));
    return Info;
  }

  /// Literals constraining one location: a positive value, or one or two
  /// excluded values.
  static void constrain(Prng &Rng, unsigned Loc, std::vector<formula::Lit> &Out) {
    unsigned N = numValues(Loc);
    unsigned Pick = static_cast<unsigned>(Rng.nextBelow(N));
    if (Rng.chance(3, 5)) {
      Out.push_back(formula::Lit::pos(atom(Loc, Pick)));
      return;
    }
    Out.push_back(formula::Lit::neg(atom(Loc, Pick)));
    if (N == 3 && Rng.chance(1, 3))
      Out.push_back(formula::Lit::neg(atom(Loc, (Pick + 1) % N)));
  }

  /// One cube of 20-60 literals over locations [First, First + Count)
  /// (fewer literals when the locations run out).
  static std::vector<formula::Lit> baseCube(Prng &Rng, unsigned First,
                                            unsigned Count) {
    unsigned Target = 20 + static_cast<unsigned>(Rng.nextBelow(41));
    std::vector<unsigned> Locs(Count);
    for (unsigned L = 0; L < Count; ++L)
      Locs[L] = First + L;
    std::vector<formula::Lit> Lits;
    for (unsigned I = 0; I < Count && Lits.size() < Target; ++I) {
      std::swap(Locs[I], Locs[I + Rng.nextBelow(Count - I)]);
      constrain(Rng, Locs[I], Lits);
    }
    return Lits;
  }

  /// A variant of \p Base: one or two of its locations constrained afresh
  /// (or, sometimes, left unconstrained).
  static std::vector<formula::Lit> variant(Prng &Rng,
                                           std::vector<formula::Lit> Base) {
    unsigned Changes = 1 + static_cast<unsigned>(Rng.nextBelow(2));
    for (unsigned C = 0; C < Changes && !Base.empty(); ++C) {
      unsigned Loc = Base[Rng.nextBelow(Base.size())].atom() / 3;
      std::vector<formula::Lit> Kept;
      for (formula::Lit L : Base)
        if (L.atom() / 3 != Loc)
          Kept.push_back(L);
      if (!Rng.chance(1, 6))
        constrain(Rng, Loc, Kept);
      Base = std::move(Kept);
    }
    return Base;
  }

  /// 8-20 cubes over locations [First, First + Count): 1-3 base cubes
  /// and variants of them.
  static formula::Dnf formula(Prng &Rng, unsigned First = 0,
                              unsigned Count = NumLocs) {
    std::vector<std::vector<formula::Lit>> Bases;
    unsigned NumBases = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned B = 0; B < NumBases; ++B)
      Bases.push_back(baseCube(Rng, First, Count));
    std::vector<formula::Cube> Cubes;
    unsigned N = 8 + static_cast<unsigned>(Rng.nextBelow(13));
    for (unsigned I = 0; I < N; ++I) {
      const std::vector<formula::Lit> &Base = Bases[Rng.nextBelow(NumBases)];
      if (auto C = formula::Cube::make(I < NumBases ? Base
                                                    : variant(Rng, Base)))
        Cubes.push_back(std::move(*C));
    }
    return formula::Dnf::fromCubes(std::move(Cubes));
  }

  /// A consistent assignment (one value per location) near \p Near's cubes:
  /// satisfies a random cube where it can, then re-draws a location or two.
  static std::vector<unsigned> assignmentNear(Prng &Rng,
                                              const formula::Dnf &Near) {
    std::vector<unsigned> Vals(NumLocs);
    for (unsigned L = 0; L < NumLocs; ++L)
      Vals[L] = static_cast<unsigned>(Rng.nextBelow(numValues(L)));
    if (!Near.cubes().empty()) {
      const formula::Cube &C = Near.cubes()[Rng.nextBelow(Near.size())];
      for (formula::Lit L : C.literals())
        if (!L.isNeg())
          Vals[L.atom() / 3] = L.atom() % 3;
      // Step each negatively constrained location off its excluded values.
      for (unsigned Pass = 0; Pass < 3; ++Pass)
        for (formula::Lit L : C.literals())
          if (L.isNeg() && Vals[L.atom() / 3] == L.atom() % 3)
            Vals[L.atom() / 3] =
                (Vals[L.atom() / 3] + 1) % numValues(L.atom() / 3);
    }
    unsigned Perturb = static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned P = 0; P < Perturb; ++P) {
      unsigned L = static_cast<unsigned>(Rng.nextBelow(NumLocs));
      Vals[L] = static_cast<unsigned>(Rng.nextBelow(numValues(L)));
    }
    return Vals;
  }

  static formula::AtomEval evalOf(const std::vector<unsigned> &Vals) {
    return [&Vals](formula::AtomId A) { return Vals[A / 3] == A % 3; };
  }
};

} // namespace testutil
} // namespace optabs

#endif // OPTABS_TESTS_ESCAPESHAPEDFORMULAS_H
