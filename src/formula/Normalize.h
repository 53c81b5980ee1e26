//===- Normalize.h - Semantic DNF normalization ----------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic normalization of DNF formulas using client knowledge about the
/// atoms. The paper's hand-written backward transfer functions (Figures 10
/// and 11) are compact because they bake in facts like "a variable holds
/// exactly one of N/L/E"; a mechanical weakest-precondition construction
/// instead yields propositionally fragmented cubes such as
///
///   (v.N /\ u.E) \/ (v.E /\ u.E) \/ (v.L /\ u.E)      ==  u.E
///
/// that purely syntactic simplification cannot re-merge. This header
/// provides the semantic rules that recover the compact forms (§8 of the
/// paper calls for exactly such a "generic semantics-preserving
/// simplification process"):
///
///  * exclusivity refinement - inside a cube, two distinct positive values
///    of one location are contradictory; a positive value makes negative
///    literals of the same location redundant; for exhaustive locations,
///    negatives covering all but one value are replaced by the remaining
///    positive;
///  * complementary merge - cubes X u {l} and X u {!l} merge to X;
///  * value-complete merge - for an exhaustive location, cubes X u {a_i}
///    for every value a_i of the location merge to X;
///  * subsumption, re-run after each merge round.
///
/// All rules are semantics-preserving (they neither grow nor shrink the
/// meaning), so Theorem 3's invariants are unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_FORMULA_NORMALIZE_H
#define OPTABS_FORMULA_NORMALIZE_H

#include "formula/Dnf.h"

#include <unordered_map>

namespace optabs {
namespace formula {

/// Client-declared semantics of an atom that belongs to a multi-valued
/// location (e.g. "variable u holds N, L or E" makes u.N/u.L/u.E one
/// location with three values).
struct LocationInfo {
  /// All value atoms of the location, including the queried one.
  std::vector<AtomId> Values;
  /// True when exactly one value holds in every state (vs. at most one).
  bool Exhaustive = true;
};

/// Returns the location of an atom, or nullopt for independent atoms.
using LocationFn = std::function<std::optional<LocationInfo>(AtomId)>;

/// Client-specific cube refinement: returns the semantically simplified
/// cube, or nullopt when the cube is unsatisfiable. Must preserve meaning.
using CubeRefiner = std::function<std::optional<Cube>(const Cube &)>;

/// The client's locations as a dense table: atom -> location id, and
/// location id -> value atoms plus the exhaustive flag. Each atom's entry
/// is filled from the LocationFn the first time the atom is looked up, so
/// the client is asked once per atom rather than once per literal. A
/// location is identified by its smallest value atom; the client must
/// report the same location for each of its values. Lookups fill the
/// table, so one table must not be shared between threads.
class LocationTable {
public:
  /// Location id of atoms that belong to no location.
  static constexpr uint32_t Independent = UINT32_MAX;

  /// A table in which every atom is independent.
  LocationTable() = default;
  explicit LocationTable(LocationFn Loc) : Loc(std::move(Loc)) {}

  uint32_t locationOf(AtomId A) {
    if (A < AtomLoc.size() && AtomLoc[A] != Unknown)
      return AtomLoc[A];
    return fill(A);
  }
  const AtomId *valuesBegin(uint32_t L) const {
    return Values.data() + ValueBegin[L];
  }
  const AtomId *valuesEnd(uint32_t L) const {
    return Values.data() + ValueBegin[L + 1];
  }
  size_t numValues(uint32_t L) const {
    return ValueBegin[L + 1] - ValueBegin[L];
  }
  bool exhaustive(uint32_t L) const { return Exhaustive[L]; }

private:
  static constexpr uint32_t Unknown = UINT32_MAX - 1;
  uint32_t fill(AtomId A);

  LocationFn Loc;
  std::vector<uint32_t> AtomLoc;        ///< per atom; Unknown until asked
  std::vector<uint32_t> ValueBegin{0};  ///< per location, into Values
  std::vector<AtomId> Values;
  std::vector<uint8_t> Exhaustive;      ///< per location
  /// Smallest value atom -> location id; consulted only while filling.
  std::unordered_map<AtomId, uint32_t> ByKey;
};

/// Generic exclusivity-based refinement driven by the location table:
/// rewrites \p C in place and returns false when it is unsatisfiable.
bool refineCubeByLocations(Cube &C, LocationTable &Locs);

/// Applies location refinement, then the client's \p Refine (may be
/// null), then the merge rules and subsumption to a fixpoint. With a
/// table that has no locations only the complementary merge and
/// subsumption apply.
void semanticNormalize(Dnf &D, const CubeRefiner &Refine,
                       LocationTable &Locs);

} // namespace formula
} // namespace optabs

#endif // OPTABS_FORMULA_NORMALIZE_H
