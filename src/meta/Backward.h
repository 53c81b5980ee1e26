//===- Backward.h - Generic backward meta-analysis -------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backward meta-analysis B[t] of §4 / Figure 7. Given an abstract
/// counterexample trace t of the forward analysis, the abstraction p used,
/// the forward states along t, and the failure condition not(q), it
/// propagates a boolean formula backwards:
///
///   B[eps](p, d, f)   = f
///   B[a](p, d, f)     = approx(p, d, wp_a(f))
///   B[t;t'](p, d, f)  = B[t](p, d, B[t'](p, F_p[t](d), f))
///
/// The result represents a *sufficient condition for failure*: every pair
/// (p', d') in its meaning fails the query the same way (Theorem 3). The
/// under-approximation operator approx (Figure 8) keeps formulas in DNF
/// with at most K disjuncts, always retaining a disjunct containing the
/// current (p, d) so the current abstraction is guaranteed to be eliminated.
///
/// The client supplies the meta-analysis data of §4.1 for a *disjunctive*
/// meta-analysis:
///
/// \code
///   struct BackwardClient {
///     using Param = ...;   // same as the forward client's
///     using State = ...;   // same as the forward client's
///     // Weakest precondition of a single positive atom across Cmd (the
///     // [a]^b of Figures 10/11), as a formula over atoms. Must satisfy
///     // requirement (2): gamma(wp(A)) = {(p,d) | A holds of (p,[a]_p(d))}.
///     formula::Formula wpAtom(const ir::Command &Cmd,
///                             formula::AtomId A) const;
///     // Truth of atom A in a concrete pair (p, d) - the gamma function.
///     bool evalAtom(formula::AtomId A, const Param &P,
///                   const State &D) const;
///     // True if A constrains only the parameter component.
///     bool isParamAtom(formula::AtomId A) const;
///     std::string atomName(formula::AtomId A) const;
///     // Semantic cube simplification hooks (see formula/Normalize.h):
///     // exploit mutual exclusivity between atoms so formulas stay as
///     // compact as the paper's hand-written Figures 10/11. atomLocation
///     // is asked once per atom and drives the generic location rules;
///     // refineCube is optional and adds client-specific rules on top.
///     std::optional<formula::LocationInfo>
///     atomLocation(formula::AtomId) const;
///     std::optional<formula::Cube> refineCube(const formula::Cube &) const;
///   };
/// \endcode
///
/// Because forward transfer functions are deterministic, wp distributes
/// over /\, \/ and negation, so the wp of a whole formula is the
/// substitution of wpAtom into its literals; this is how the driver lifts
/// the client's atom-wise transfers to formulas.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_META_BACKWARD_H
#define OPTABS_META_BACKWARD_H

#include "formula/Formula.h"
#include "formula/Normalize.h"
#include "ir/Program.h"
#include "ir/Trace.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "support/FlatIndex.h"
#include "support/Invariants.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace optabs {
namespace meta {

/// Tuning knobs for the meta-analysis.
struct BackwardConfig {
  /// Beam width k of the dropk operator; 0 disables under-approximation
  /// entirely (the exact mode of Figure 6(a)).
  unsigned K = 5;
  /// Cap on intermediate cube counts during per-step substitution. Only a
  /// scalability guard; 0 disables. Irrelevant when K is small.
  size_t ProductSoftCap = 4096;
  /// Wall-clock limit per trace run; 0 disables. Exact mode (K = 0) grows
  /// formulas exponentially along long traces (the paper reports outright
  /// timeouts), so harnesses bound it and treat an expired run as a
  /// timeout: the partial formula constrains an interior trace point, not
  /// the initial state, and must be discarded.
  double TimeoutSeconds = 0;
  /// Logical-step budget per trace run: each non-skipped backward step
  /// charges 1 and each Dnf::product charges its cross-product size against
  /// one shared per-run gate. 0 disables. Unlike TimeoutSeconds this is
  /// deterministic — it trips at the same step for any worker count — and
  /// an exhausted run is discarded exactly like a timeout (nullopt), which
  /// is sound: learning nothing never prunes a viable abstraction.
  uint64_t StepBudget = 0;
  /// Optional cooperative-cancellation token polled at every step charge;
  /// a requested token makes run() unwind and return nullopt.
  const support::CancelToken *Cancel = nullptr;
  /// Hard cap on formula size before a run is declared timed out; guards
  /// against a single substitution step exhausting memory. 0 disables.
  size_t HardCubeCap = 50000;
  /// Above this size, skip the quadratic semantic merging and keep only
  /// subsumption; above SimplifyCap, skip even that (meaning-preserving
  /// either way, just less compact).
  size_t NormalizeCap = 512;
  size_t SimplifyCap = 8192;
  /// Skip commands whose weakest precondition is the identity on every
  /// literal of the current formula (the common case on long traces:
  /// commands of unrelated program regions cannot affect the query's
  /// atoms). Purely an optimization; results are unchanged.
  bool SkipIdentitySteps = true;
  /// Optional observer called after each backward step with the trace
  /// index, the command just traversed, and the formula before it (i.e.
  /// the meta-analysis state at the command's program point). Used by the
  /// examples to print Figure 1/6-style walkthroughs. The observer runs on
  /// whichever thread executes the backward run; callers sharing one
  /// callable across several BackwardMetaAnalysis instances on different
  /// threads must serialize it themselves (the TRACER driver wraps the
  /// observer in a mutex when NumThreads > 1).
  std::function<void(size_t, const ir::Command &, const formula::Dnf &)>
      StepObserver;
  /// Where violated invariants are recorded (see support/Invariants.h).
  /// A violated precondition or soundness invariant makes run() discard
  /// the tainted formula and return nullopt, exactly like a timeout, so an
  /// invariant violation can never unsoundly prune viable abstractions.
  /// Null: violations go to stderr instead.
  support::InvariantSink *Invariants = nullptr;
};

/// Statistics of one backward run.
struct BackwardStats {
  size_t MaxCubes = 0;    ///< largest formula (in cubes) ever tracked
  size_t TotalCubes = 0;  ///< sum of per-step cube counts
  size_t Steps = 0;       ///< trace length processed
};

template <typename Client> class BackwardMetaAnalysis {
public:
  using Param = typename Client::Param;
  using State = typename Client::State;

  BackwardMetaAnalysis(const ir::Program &P, const Client &C,
                       BackwardConfig Config = BackwardConfig())
      : P(P), C(C), Config(Config),
        Locs([&C](formula::AtomId A) { return C.atomLocation(A); }) {
    if constexpr (requires(const Client &Cl, const formula::Cube &X) {
                    Cl.refineCube(X);
                  })
      Refiner = [&C](const formula::Cube &X) { return C.refineCube(X); };
  }

  /// Runs B[t](p, d_I, NotQ). \p States must be the forward state sequence
  /// along \p T starting from d_I (length |T| + 1, as produced by
  /// ForwardAnalysis::replay), and NotQ must hold of (p, States.back()) -
  /// i.e. the trace really is a counterexample. The result holds of
  /// (p, d_I) and is a sufficient condition for failure.
  /// Returns nullopt when the run exceeded its time or size budget (only
  /// possible with a nonzero TimeoutSeconds/HardCubeCap); a timed-out
  /// partial formula is unusable and is not returned.
  std::optional<formula::Dnf> run(const ir::Trace &T, const Param &Prm,
                                  const std::vector<State> &States,
                                  const formula::Dnf &NotQ) {
    Stats = BackwardStats();
    Stats.Steps = T.size();
    LastExhaustion.reset();
    support::BudgetGate Gate("backward.step", Config.StepBudget,
                             Config.Cancel, 0, Config.Invariants);
    if (States.size() != T.size() + 1) {
      support::reportInvariant(
          Config.Invariants, "backward-state-length",
          "BackwardMetaAnalysis::run",
          "state sequence length " + std::to_string(States.size()) +
              " does not match trace length " + std::to_string(T.size()) +
              " + 1; run discarded");
      return std::nullopt;
    }
    Timer Clock;

    formula::Dnf F = NotQ;
    if (!F.eval(makeEval(Prm, States.back()))) {
      support::reportInvariant(
          Config.Invariants, "backward-notq-precondition",
          "BackwardMetaAnalysis::run",
          "not(q) does not hold at the end of the supposed counterexample "
          "trace (length " +
              std::to_string(T.size()) + "); run discarded");
      return std::nullopt;
    }

    // The formula changes only at non-skipped steps; Epoch numbers those
    // changes (and runs) so the identity-skip verdict can be memoized per
    // (command, formula) below.
    newFormula();

    for (size_t I = T.size(); I-- > 0;) {
      if (Config.TimeoutSeconds > 0 &&
          Clock.seconds() > Config.TimeoutSeconds) {
        LastExhaustion =
            support::Exhausted{support::Resource::WallClock, "backward.step"};
        return std::nullopt;
      }
      if (!Gate.charge()) {
        LastExhaustion = Gate.why();
        return std::nullopt; // budget/cancellation: discard like a timeout
      }
      const ir::Command &Cmd = P.command(T[I]);
      bool Skip = Config.SkipIdentitySteps && isIdentityStep(T[I], Cmd, F);
      if (!Skip) {
        formula::AtomEval PreEval = makeEval(Prm, States[I]);
        std::optional<formula::Dnf> Wp =
            wpFormula(T[I], Cmd, F, PreEval, &Gate);
        if (!Wp) {
          // Either the shared gate ran out mid-substitution or the hard
          // cube cap tripped; the latter is a memory guard, reported as
          // such.
          LastExhaustion =
              Gate.exhausted()
                  ? Gate.why()
                  : std::optional<support::Exhausted>{support::Exhausted{
                        support::Resource::Memory, "backward.step"}};
          return std::nullopt; // formula blow-up (exact mode)
        }
        F = std::move(*Wp);
        // Semantic simplification recovers the compact forms of the paper's
        // hand-written transfer functions before the beam search prunes.
        // Its merging pass is quadratic, so very large (exact-mode)
        // formulas get progressively lighter treatment.
        if (F.size() <= Config.NormalizeCap) {
          formula::semanticNormalize(F, Refiner, Locs);
        } else if (F.size() <= Config.SimplifyCap) {
          F.sortBySize();
          F.simplify();
        } else {
          F.sortBySize(); // subsumption is quadratic; skip when huge
        }
        // Every tier above leaves F sorted by size and duplicate-free, the
        // order dropK assumes.
        if (Config.K > 0 && F.size() > Config.K)
          F.dropK(Config.K, PreEval, Config.Invariants);
        if (!F.eval(PreEval)) {
          // Soundness invariant (Theorem 3): the current (p, d) must stay
          // inside the formula at every trace point, or the final formula
          // is not guaranteed to eliminate the current abstraction. Discard
          // the run like a timeout - learning nothing is sound, learning
          // from a tainted formula is not.
          support::reportInvariant(
              Config.Invariants, "backward-soundness",
              "BackwardMetaAnalysis::run",
              "(p, d) escaped the formula at trace step " +
                  std::to_string(I) + " (formula size " +
                  std::to_string(F.size()) + "); run discarded");
          return std::nullopt;
        }
        newFormula();
        Stats.MaxCubes = std::max(Stats.MaxCubes, F.size());
      }
      Stats.TotalCubes += F.size();
      if (Config.StepObserver)
        Config.StepObserver(I, Cmd, F);
      if (!Skip && support::metricsEnabled()) {
        static auto &StepCubes = support::MetricRegistry::global().histogram(
            "optabs_backward_step_cubes");
        StepCubes.record(F.size());
      }
    }
    if (support::metricsEnabled()) {
      static auto &Steps = support::MetricRegistry::global().counter(
          "optabs_backward_steps_total");
      Steps.add(T.size());
    }
    return F;
  }

  /// Projects a final formula onto the parameter component at the initial
  /// state: the returned DNF is over parameter atoms only and describes
  /// exactly the abstractions p' with (p', d_I) in gamma(F) - the set
  /// Pi of Algorithm 1, line 14. State atoms are evaluated at d_I.
  formula::Dnf projectToParams(const formula::Dnf &F, const Param &Prm,
                               const State &InitState) {
    formula::Dnf Result;
    std::vector<formula::Cube> Cubes;
    for (const formula::Cube &Cube : F.cubes()) {
      std::vector<formula::Lit> ParamLits;
      bool Feasible = true;
      for (formula::Lit L : Cube.literals()) {
        if (C.isParamAtom(L.atom())) {
          ParamLits.push_back(L);
        } else if (!L.eval([&](formula::AtomId A) {
                     return C.evalAtom(A, Prm, InitState);
                   })) {
          Feasible = false;
          break;
        }
      }
      if (!Feasible)
        continue;
      if (auto NewCube = formula::Cube::make(std::move(ParamLits)))
        Cubes.push_back(std::move(*NewCube));
    }
    Result = formula::Dnf::fromCubes(std::move(Cubes));
    formula::semanticNormalize(Result, Refiner, Locs);
    Result.sortBySize();
    Result.simplify();
    return Result;
  }

  const BackwardStats &stats() const { return Stats; }

  /// Why the most recent run() returned nullopt for resource reasons;
  /// empty after a successful run or an invariant-discard.
  const std::optional<support::Exhausted> &lastExhaustion() const {
    return LastExhaustion;
  }

  /// Shrinks (or widens) the dropk beam between runs — the degradation
  /// ladder's rung 2. A smaller K only under-approximates harder (§5's
  /// dropK argument), so tightening mid-driver-run is sound.
  void setBeamWidth(unsigned K) { Config.K = K; }

  std::string formulaToString(const formula::Dnf &F) const {
    return F.toString([this](formula::AtomId A) { return C.atomName(A); });
  }

private:
  formula::AtomEval makeEval(const Param &Prm, const State &D) const {
    return [this, &Prm, &D](formula::AtomId A) {
      return C.evalAtom(A, Prm, D);
    };
  }

  /// Marks the current formula as new: identity-skip verdicts and the
  /// deduplicated literal set computed for the previous one are stale.
  void newFormula() {
    ++Epoch;
    FLitsEpoch = 0;
  }

  /// True when the wp of every literal of \p F across \p Cmd is the
  /// literal itself, i.e. the whole step is the identity. The verdict is a
  /// function of (command, formula), so it is computed once per command
  /// per formula: SkipEpoch[cmd] names the formula the cached verdict
  /// belongs to. The check runs over F's deduplicated literals, which are
  /// collected once per formula; a literal shared by many cubes is looked
  /// up once.
  bool isIdentityStep(ir::CommandId CmdId, const ir::Command &Cmd,
                      const formula::Dnf &F) {
    const uint32_t Ci = CmdId.index();
    if (Ci >= SkipEpoch.size()) {
      size_t N = std::max<size_t>(Ci + 1, P.numCommands());
      SkipEpoch.resize(N, 0);
      SkipVerdict.resize(N, 0);
    }
    if (SkipEpoch[Ci] == Epoch)
      return SkipVerdict[Ci];
    if (FLitsEpoch != Epoch) {
      FLits.clear();
      for (const formula::Cube &Cube : F.cubes())
        FLits.insert(FLits.end(), Cube.literals().begin(),
                     Cube.literals().end());
      std::sort(FLits.begin(), FLits.end());
      FLits.erase(std::unique(FLits.begin(), FLits.end()), FLits.end());
      FLitsEpoch = Epoch;
    }
    bool Identity = true;
    for (formula::Lit L : FLits) {
      if (!WpIdentity[wpSlot(CmdId, Cmd, L)]) {
        Identity = false;
        break;
      }
    }
    SkipEpoch[Ci] = Epoch;
    SkipVerdict[Ci] = Identity;
    return Identity;
  }

  /// wp of a whole DNF across one command: substitute the wp of each
  /// literal and redistribute. Returns nullopt when the result exceeds the
  /// hard cube cap (only reachable in exact mode, where nothing prunes).
  std::optional<formula::Dnf> wpFormula(ir::CommandId CmdId,
                                        const ir::Command &Cmd,
                                        const formula::Dnf &F,
                                        const formula::AtomEval &PreEval,
                                        support::BudgetGate *Gate = nullptr) {
    std::vector<formula::Cube> Result;
    auto OverCap = [&](size_t CubeWpSize) {
      return Config.HardCubeCap > 0 &&
             Result.size() + CubeWpSize > Config.HardCubeCap;
    };
    for (const formula::Cube &Cube : F.cubes()) {
      // Multiply the literal wps smallest-first: the product cube multiset
      // is order-independent (conjunction is commutative and contradictions
      // absorb), and every normalization tier canonicalizes with
      // sortBySize, so the result is unchanged while the intermediate
      // cross-products - the actual cost - stay as small as possible.
      Wps.clear();
      for (formula::Lit L : Cube.literals())
        Wps.push_back(&WpStore[wpSlot(CmdId, Cmd, L)]); // node-stable
      std::stable_sort(Wps.begin(), Wps.end(),
                       [](const formula::Dnf *A, const formula::Dnf *B) {
                         return A->size() < B->size();
                       });
      // The leading run of single-cube wps (mostly wp(l) = l) is a chain
      // of 1x1 products; fold it into one cube with one merge. Each folded
      // product still pays its gate charge and cap check, in order, and
      // the chain stops at the product that first meets a contradiction.
      size_t Run = 0;
      while (Run < Wps.size() && Wps[Run]->size() == 1)
        ++Run;
      size_t Next = 0;
      formula::Dnf CubeWp = formula::Dnf::constTrue();
      if (Run > 0) {
        std::optional<size_t> Clash = foldSingleCubes(Run);
        size_t Products = Clash ? *Clash + 1 : Run;
        for (size_t J = 0; J < Products; ++J) {
          if (!formula::Dnf::chargeProduct(1, Config.Invariants, Gate))
            return std::nullopt; // the product would be under-charged false
          if (OverCap(Clash && J == *Clash ? 0 : 1))
            return std::nullopt;
        }
        if (Clash)
          continue; // this cube's wp is false
        formula::Cube Acc;
        [[maybe_unused]] bool Consistent =
            Acc.reset(FoldOut.data(), FoldOut.data() + FoldOut.size());
        assert(Consistent && "a clash-free fold has no a and !a");
        if (Run == Wps.size()) {
          Result.push_back(std::move(Acc));
          continue;
        }
        std::vector<formula::Cube> One;
        One.push_back(std::move(Acc));
        CubeWp = formula::Dnf::fromCubes(std::move(One));
        Next = Run;
      }
      for (size_t J = Next; J < Wps.size(); ++J) {
        CubeWp = formula::Dnf::product(CubeWp, *Wps[J], Config.ProductSoftCap,
                                       PreEval, Config.Invariants, Gate);
        if (Gate && Gate->exhausted())
          return std::nullopt; // product returned an under-charged false
        if (OverCap(CubeWp.size()))
          return std::nullopt;
        if (CubeWp.isFalse())
          break;
      }
      std::vector<formula::Cube> Cubes = CubeWp.takeCubes();
      Result.insert(Result.end(), std::make_move_iterator(Cubes.begin()),
                    std::make_move_iterator(Cubes.end()));
    }
    return formula::Dnf::fromCubes(std::move(Result));
  }

  /// Conjoins the single cubes of Wps[0, Run) in one sort: leaves their
  /// union in FoldOut and returns the index of the first wp whose cube
  /// contradicts the union of the ones before it, if any. That is where
  /// the product chain wp_0 * wp_1 * ... first turns false: atom a clashes
  /// at max(first step with a, first step with !a).
  std::optional<size_t> foldSingleCubes(size_t Run) {
    FoldScratch.clear();
    for (size_t J = 0; J < Run; ++J)
      for (formula::Lit L : Wps[J]->cubes()[0].literals())
        FoldScratch.push_back((static_cast<uint64_t>(L.raw()) << 32) | J);
    std::sort(FoldScratch.begin(), FoldScratch.end());
    FoldOut.clear();
    std::optional<size_t> Clash;
    size_t BackFirst = 0; // first step of FoldOut.back()
    // Entries are sorted by literal, then step, so the first entry of each
    // literal carries its first step, and a positive literal's entries
    // directly precede its negation's.
    for (size_t I = 0; I < FoldScratch.size(); ++I) {
      uint32_t Raw = static_cast<uint32_t>(FoldScratch[I] >> 32);
      if (I > 0 && static_cast<uint32_t>(FoldScratch[I - 1] >> 32) == Raw)
        continue;
      size_t First = static_cast<uint32_t>(FoldScratch[I]);
      formula::Lit L = formula::Lit::pos(Raw >> 1);
      if (Raw & 1)
        L = L.negate();
      if (!FoldOut.empty() && FoldOut.back() == L.negate()) {
        size_t At = std::max(BackFirst, First);
        Clash = Clash ? std::min(*Clash, At) : At;
      }
      FoldOut.push_back(L);
      BackFirst = First;
    }
    return Clash;
  }

  /// Index into WpStore of wp(L) across one command, memoized per
  /// (command, literal). Negative literals use wp(!A) = !wp(A), valid
  /// because transfers are deterministic. Most wps are the literal itself;
  /// those share one stored copy per literal, filed under the key of
  /// command index ~0u (never a real command).
  uint32_t wpSlot(ir::CommandId CmdId, const ir::Command &Cmd,
                  formula::Lit L) {
    uint64_t Key = (static_cast<uint64_t>(CmdId.index()) << 32) | L.raw();
    uint32_t Slot = WpIndex.find(Key);
    if (Slot != support::FlatIndex::Missing)
      return Slot;
    formula::Formula Wp = C.wpAtom(Cmd, L.atom());
    if (L.isNeg())
      Wp = formula::Formula::negate(Wp);
    formula::Dnf W = Wp.toDnf();
    bool Identity = W.size() == 1 && W.cubes()[0].size() == 1 &&
                    W.cubes()[0].literals()[0] == L;
    const uint64_t IdentityKey = (uint64_t(UINT32_MAX) << 32) | L.raw();
    Slot = Identity ? WpIndex.find(IdentityKey) : support::FlatIndex::Missing;
    if (Slot == support::FlatIndex::Missing) {
      Slot = static_cast<uint32_t>(WpStore.size());
      WpStore.push_back(std::move(W));
      WpIdentity.push_back(Identity);
      if (Identity)
        WpIndex.insert(IdentityKey, Slot);
    }
    WpIndex.insert(Key, Slot);
    return Slot;
  }

  const ir::Program &P;
  const Client &C;
  BackwardConfig Config;
  formula::CubeRefiner Refiner; ///< null unless the client has refineCube
  formula::LocationTable Locs;
  /// wp memo: a deque keeps every wp DNF at a stable address for the
  /// engine's lifetime; WpIndex maps (command, literal) to its position
  /// and WpIdentity records whether it is the literal itself.
  /// Identity wps are stored once per literal (see wpSlot).
  std::deque<formula::Dnf> WpStore;
  std::vector<uint8_t> WpIdentity;
  support::FlatIndex WpIndex;
  /// Identity-skip memo: SkipVerdict[cmd] holds for the formula numbered
  /// SkipEpoch[cmd]. Epoch advances at every formula change and run
  /// start, so entries of earlier formulas and runs never match.
  std::vector<uint64_t> SkipEpoch;
  std::vector<uint8_t> SkipVerdict;
  uint64_t Epoch = 0;
  /// The current formula's deduplicated literals, valid when FLitsEpoch
  /// equals Epoch.
  std::vector<formula::Lit> FLits;
  uint64_t FLitsEpoch = 0;
  /// wpFormula scratch: one cube's literal wps, and the fold's entries
  /// (raw literal << 32 | step) and output.
  std::vector<const formula::Dnf *> Wps;
  std::vector<uint64_t> FoldScratch;
  std::vector<formula::Lit> FoldOut;
  BackwardStats Stats;
  std::optional<support::Exhausted> LastExhaustion;
};

} // namespace meta
} // namespace optabs

#endif // OPTABS_META_BACKWARD_H
