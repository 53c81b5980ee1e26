//===- Escape.h - Parametric thread-escape analysis ------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parametric thread-escape analysis of §3.2 / Figure 5 together with
/// its backward meta-analysis (Figure 11), packaged as an Analysis bundle
/// for the generic engines and the TRACER driver.
///
/// Abstract states map local variables and fields (of L-summarized
/// objects) to one of three abstract values:
///   N - definitely null,
///   L - a thread-local object (or null),
///   E - a possibly thread-escaping object (or null).
/// E-summarized objects are closed under reachability, so storing an L
/// object into an escaped one collapses the state via esc(). The
/// abstraction p maps each allocation site to L or E; cost = number of
/// L-mapped sites (the paper's preorder).
///
/// Implementation note: each command's transfer function is expressed as an
/// ordered list of mutually-exclusive guarded cases (guard formula over
/// atoms; effect = identity / esc / single assignment). The forward
/// transfer evaluates the guards on the concrete state; the backward
/// weakest precondition of an atom is assembled from the same case list,
/// so requirement (2) of the framework (§4) holds by construction. The
/// resulting formulas coincide with Figure 11's hand-written table (modulo
/// propositional equivalence), which the tests verify by property testing.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_ESCAPE_ESCAPE_H
#define OPTABS_ESCAPE_ESCAPE_H

#include "formula/Formula.h"
#include "formula/Normalize.h"
#include "ir/Program.h"
#include "meta/GuardedCases.h"
#include "support/BitSet.h"

#include <string>
#include <vector>

namespace optabs {
namespace escape {

/// The three abstract values.
enum class AbsVal : uint8_t { N = 0, L = 1, E = 2 };

inline const char *absValName(AbsVal V) {
  switch (V) {
  case AbsVal::N:
    return "N";
  case AbsVal::L:
    return "L";
  case AbsVal::E:
    return "E";
  }
  return "?";
}

/// Abstract state d : (Locals u Fields) -> {N, L, E}. The flat value
/// vector is indexed by variables first, then fields.
struct EscState {
  std::vector<uint8_t> Vals;

  friend bool operator==(const EscState &A, const EscState &B) {
    return A.Vals == B.Vals;
  }
  friend bool operator<(const EscState &A, const EscState &B) {
    return A.Vals < B.Vals;
  }
};

/// The abstraction p : H -> {L, E}; bit set = site mapped to L.
struct EscParam {
  BitSet LSites;
};

class EscapeAnalysis {
public:
  using Param = EscParam;
  using State = EscState;

  struct StateHash {
    size_t operator()(const EscState &S) const {
      uint64_t H = 0xcbf29ce484222325ULL;
      for (uint8_t B : S.Vals)
        H = (H ^ B) * 0x100000001b3ULL;
      return static_cast<size_t>(H);
    }
  };

  explicit EscapeAnalysis(const ir::Program &P) : P(P) {}

  //===--- forward ---------------------------------------------------------===
  State initialState() const;
  State transfer(const ir::Command &Cmd, const State &In,
                 const Param &Prm) const;

  /// Forgets dead variables (optional engine hook, see dataflow/Forward.h):
  /// resets their slots to the initial N. Field slots are shared program
  /// state and stay untouched.
  void pruneState(State &S, const BitSet &Live) const {
    const size_t NumVars = P.numVars();
    for (size_t V = 0; V < NumVars && V < S.Vals.size(); ++V)
      if (V >= Live.size() || !Live.test(V))
        S.Vals[V] = static_cast<uint8_t>(AbsVal::N);
  }

  //===--- queries ---------------------------------------------------------===
  /// Failure condition for check(v) = "local(v)?": the queried variable may
  /// point to a potentially escaping object, i.e. the atom v.E.
  formula::Dnf notQ(ir::CheckId Check) const;

  //===--- backward meta-analysis ------------------------------------------===
  formula::Formula wpAtom(const ir::Command &Cmd, formula::AtomId A) const;
  bool evalAtom(formula::AtomId A, const Param &Prm, const State &D) const;
  bool isParamAtom(formula::AtomId A) const;
  std::string atomName(formula::AtomId A) const;

  /// Semantic normalization hook: every variable/field holds exactly one
  /// of N/L/E, and every site maps to exactly one of L/E; these locations
  /// let the meta-analysis keep formulas as compact as Figure 11's. They
  /// are the whole of this client's cube refinement, so it declares no
  /// refineCube.
  std::optional<formula::LocationInfo> atomLocation(formula::AtomId A) const;

  //===--- parameter codec --------------------------------------------------===
  uint32_t numParamBits() const { return P.numAllocs(); }
  std::pair<uint32_t, bool> decodeParamAtom(formula::AtomId A) const;
  Param paramFromBits(const std::vector<bool> &Bits) const;
  uint32_t paramCost(const Param &Prm) const {
    return static_cast<uint32_t>(Prm.LSites.count());
  }
  std::string paramToString(const Param &Prm) const;

  //===--- atom constructors (public for tests and examples) ----------------===
  /// Atom h.o: the abstraction maps site h to o (o in {L, E}).
  static formula::AtomId atomSite(ir::AllocId H, AbsVal O) {
    return (H.index() << 4) | (static_cast<uint32_t>(O) << 2) | 0;
  }
  /// Atom v.o: the state binds variable v to o.
  static formula::AtomId atomVar(ir::VarId V, AbsVal O) {
    return (V.index() << 4) | (static_cast<uint32_t>(O) << 2) | 1;
  }
  /// Atom f.o: the state binds field f to o.
  static formula::AtomId atomField(ir::FieldId F, AbsVal O) {
    return (F.index() << 4) | (static_cast<uint32_t>(O) << 2) | 2;
  }

  /// Flat location index of a variable / field within EscState::Vals.
  uint32_t locOfVar(ir::VarId V) const { return V.index(); }
  uint32_t locOfField(ir::FieldId F) const {
    return P.numVars() + F.index();
  }

private:
  //===--- single-source-of-truth case lists --------------------------------===
  //
  // Each command's semantics is one meta::GuardedTransfer (the §8 recipe):
  // the forward transfer applies the enabled case, the backward transfer
  // is synthesized from per-effect weakest preconditions.

  /// Where an assigned value comes from.
  struct ValueSrc {
    enum Kind : uint8_t { Const, OfLoc, OfSite } K = Const;
    AbsVal C = AbsVal::N;  ///< Const
    uint32_t Loc = 0;      ///< OfLoc: flat location index
    uint32_t Site = 0;     ///< OfSite: allocation site index (reads p)
  };

  /// The effect of one case: esc(d), a single assignment, or identity.
  struct Effect {
    bool IsEsc = false;     ///< apply esc(d)
    bool HasAssign = false; ///< otherwise identity (unless IsEsc)
    uint32_t AssignLoc = 0;
    ValueSrc Src;
  };

  using Transfer = meta::GuardedTransfer<Effect>;

  /// Builds the case list of \p Cmd (Figure 5, one entry per semantic
  /// case).
  Transfer cases(const ir::Command &Cmd) const;

  /// wp of atom (Loc = O) under a single effect.
  formula::Formula wpUnderEffect(const Effect &E, uint32_t Loc,
                                 AbsVal O) const;

  /// Formula for "location Loc currently holds O".
  formula::Formula locIs(uint32_t Loc, AbsVal O) const;

  AbsVal valueOf(const ValueSrc &Src, const State &D, const Param &Prm) const;

  const ir::Program &P;
};

} // namespace escape
} // namespace optabs

#endif // OPTABS_ESCAPE_ESCAPE_H
