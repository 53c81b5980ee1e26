//===- Dnf.cpp - Literals, cubes and DNF formulas ---------------------------===//

#include "formula/Dnf.h"

#include "support/Budget.h"
#include "support/FlatIndex.h"
#include "support/Invariants.h"
#include "support/Metrics.h"

#include <algorithm>

namespace optabs {
namespace formula {

std::optional<Cube> Cube::make(std::vector<Lit> Lits) {
  Cube C;
  if (!C.reset(Lits.data(), Lits.data() + Lits.size()))
    return std::nullopt;
  return C;
}

bool Cube::reset(Lit *Begin, Lit *End) {
  std::sort(Begin, End);
  End = std::unique(Begin, End);
  // Complementary literals of one atom are adjacent after sorting.
  for (Lit *P = Begin; P + 1 < End; ++P)
    if (P->atom() == P[1].atom())
      return false;
  Lits.assign(Begin, static_cast<size_t>(End - Begin));
  Sig = 0;
  for (Lit *P = Begin; P != End; ++P)
    Sig |= sigBit(P->atom());
  return true;
}

void Cube::remove(Lit L) {
  const Lit *Pos = std::lower_bound(Lits.begin(), Lits.end(), L);
  assert(Pos != Lits.end() && *Pos == L);
  Lits.erase(static_cast<size_t>(Pos - Lits.begin()));
  // Another atom may share L's signature bit, so recompute.
  Sig = 0;
  for (Lit X : Lits)
    Sig |= sigBit(X.atom());
}

std::optional<Cube> Cube::conjoin(const Cube &A, const Cube &B) {
  if (A.isTrue())
    return B;
  if (B.isTrue())
    return A;
  // Merge into per-thread scratch first: a contradiction then costs no
  // allocation, and the result is allocated once at its exact size.
  thread_local std::vector<Lit> Merged;
  Merged.resize(A.Lits.size() + B.Lits.size());
  Lit *Out = Merged.data();
  const Lit *PA = A.Lits.begin(), *EA = A.Lits.end();
  const Lit *PB = B.Lits.begin(), *EB = B.Lits.end();
  if ((A.Sig & B.Sig) == 0) {
    // Disjoint atom signatures: the cubes share no atom (equal atoms would
    // share a signature bit), so neither duplicates nor complementary pairs
    // can arise - a plain unchecked merge suffices.
    while (PA != EA && PB != EB)
      *Out++ = *PB < *PA ? *PB++ : *PA++;
  } else {
    while (PA != EA && PB != EB) {
      if (*PA == *PB) {
        *Out++ = *PA;
        ++PA;
        ++PB;
      } else if (PA->atom() == PB->atom()) {
        return std::nullopt; // a and !a: contradiction
      } else {
        *Out++ = *PB < *PA ? *PB++ : *PA++;
      }
    }
  }
  // Both inputs are sorted and duplicate-free, so the merged tail needs no
  // further checks.
  Out = std::copy(PA, EA, Out);
  Out = std::copy(PB, EB, Out);
  Cube R;
  R.Lits.assign(Merged.data(), static_cast<size_t>(Out - Merged.data()));
  R.Sig = A.Sig | B.Sig;
  return R;
}

bool Cube::add(Lit L) {
  const Lit *Pos = std::lower_bound(Lits.begin(), Lits.end(), L.atom() << 1,
                                    [](Lit X, uint32_t Raw) {
                                      return X.raw() < Raw;
                                    });
  size_t I = static_cast<size_t>(Pos - Lits.begin());
  if (I < Lits.size() && Lits[I].atom() == L.atom())
    return Lits[I] == L; // already present, or contradicted by !L
  Lits.insert(I, L);
  Sig |= sigBit(L.atom());
  return true;
}

bool Cube::implies(const Cube &Other) const {
  // this => Other iff Other's literals are a subset of ours. An atom
  // present in Other but absent here shows up as a signature bit Other has
  // that we lack - reject on one word op before the literal scan.
  if ((Other.Sig & ~Sig) != 0 || Other.Lits.size() > Lits.size())
    return false;
  return std::includes(Lits.begin(), Lits.end(), Other.Lits.begin(),
                       Other.Lits.end());
}

void Dnf::sortBySize() {
  if (Cubes.size() < 2)
    return;
  // Products of overlapping cubes repeat cubes many times over, and equal
  // cubes are the costliest pairs to compare. Drop duplicates by hash
  // first (keeping the first copy; copies are equal, so which one stays
  // does not matter), then sort the distinct cubes.
  thread_local support::FlatIndex Seen;
  Seen.clear();
  Seen.reserve(Cubes.size());
  size_t Kept = 0;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    // Signature and literal sum: cheap, and collisions only cost an
    // exact comparison.
    uint64_t Sum = 0;
    for (Lit L : Cubes[I].literals())
      Sum += L.raw();
    uint64_t H = Cubes[I].signature() ^ (Sum * 0x9e3779b97f4a7c15ULL);
    bool Duplicate = false;
    Seen.forEach(H, [&](uint32_t J) { Duplicate |= Cubes[J] == Cubes[I]; });
    if (Duplicate)
      continue;
    if (Kept != I)
      Cubes[Kept] = std::move(Cubes[I]);
    Seen.insert(H, static_cast<uint32_t>(Kept));
    ++Kept;
  }
  Cubes.erase(Cubes.begin() + Kept, Cubes.end());
  std::sort(Cubes.begin(), Cubes.end(), [](const Cube &A, const Cube &B) {
    if (A.size() != B.size())
      return A.size() < B.size();
    return A.literals() < B.literals();
  });
}

void Dnf::simplify() {
  // Cubes[0, Kept) are the survivors so far; each candidate is checked
  // against them and moved down when it survives.
  size_t Kept = 0;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    bool Subsumed = false;
    for (size_t J = 0; J < Kept; ++J) {
      if (Cubes[I].implies(Cubes[J])) {
        Subsumed = true;
        break;
      }
    }
    if (Subsumed)
      continue;
    if (Kept != I)
      Cubes[Kept] = std::move(Cubes[I]);
    ++Kept;
  }
  Cubes.erase(Cubes.begin() + Kept, Cubes.end());
}

void Dnf::dropK(unsigned K, const AtomEval &Eval,
                support::InvariantSink *Sink) {
  if (K < 1) {
    support::reportInvariant(Sink, "dropk-beam-width", "Dnf::dropK",
                             "beam width must be at least 1; formula left "
                             "unpruned");
    return;
  }
  if (Cubes.size() <= K)
    return;
  if (support::metricsEnabled()) {
    auto &Reg = support::MetricRegistry::global();
    static auto &Calls = Reg.counter("optabs_dnf_dropk_calls_total");
    static auto &Dropped = Reg.counter("optabs_dnf_dropk_cubes_dropped_total");
    Calls.add(1);
    Dropped.add(Cubes.size() - K);
  }
  bool HaveSatisfied = false;
  for (size_t I = 0; I < K; ++I) {
    if (Cubes[I].eval(Eval)) {
      HaveSatisfied = true;
      break;
    }
  }
  if (!HaveSatisfied) {
    // A satisfied cube must be retained but none sits in the prefix: trade
    // the K-th cube for the shortest satisfied one beyond it (cubes are
    // sorted by size, so the first satisfied one is the shortest).
    bool Found = false;
    for (size_t I = K - 1; I < Cubes.size(); ++I) {
      if (Cubes[I].eval(Eval)) {
        if (I != K - 1)
          Cubes[K - 1] = std::move(Cubes[I]);
        Found = true;
        break;
      }
    }
    if (!Found) {
      // Theorem 3's progress guarantee requires the current (p, d) to
      // satisfy the formula here. Keep the first K cubes - still a sound
      // under-approximation - and flag that progress is no longer
      // guaranteed so the driver can recover (it falls back to eliminating
      // the current abstraction explicitly).
      support::reportInvariant(
          Sink, "dropk-progress", "Dnf::dropK",
          "no disjunct of the " + std::to_string(Cubes.size()) +
              "-cube formula is satisfied by the current (p, d); Theorem 3 "
              "progress guarantee lost");
    }
  }
  Cubes.erase(Cubes.begin() + K, Cubes.end());
}

void Dnf::approx(unsigned K, const AtomEval &Eval,
                 support::InvariantSink *Sink) {
  sortBySize();
  simplify();
  if (K > 0 && Cubes.size() > K)
    dropK(K, Eval, Sink);
}

void Dnf::conjoinLit(Lit L) {
  size_t Kept = 0;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    if (!Cubes[I].add(L))
      continue;
    if (Kept != I)
      Cubes[Kept] = std::move(Cubes[I]);
    ++Kept;
  }
  Cubes.erase(Cubes.begin() + Kept, Cubes.end());
}

void Dnf::orWith(const Dnf &Other) {
  Cubes.insert(Cubes.end(), Other.Cubes.begin(), Other.Cubes.end());
}

void Dnf::orWith(Dnf &&Other) {
  Cubes.insert(Cubes.end(), std::make_move_iterator(Other.Cubes.begin()),
               std::make_move_iterator(Other.Cubes.end()));
}

bool Dnf::chargeProduct(size_t Terms, support::InvariantSink *Sink,
                        support::BudgetGate *Gate) {
  if (support::faultsEnabled()) {
    // This site runs under the caller's gate (if any), so armed faults are
    // consulted by name here: Alloc throws from faultPoint itself;
    // Cancel/Invariant are realized against the gate when one exists.
    if (auto K = support::faultPoint("dnf.product"); K && Gate) {
      if (*K == support::FaultKind::Invariant)
        reportInvariant(Sink, "injected-fault", "dnf.product",
                        "fault injection: forced invariant breakage");
      Gate->exhaust(support::Resource::Cancelled);
    }
  }
  // Charge the full cross-product size up front: the cost of a product is
  // |A| * |B| conjunctions whether or not they survive pruning, and the
  // count is schedule-independent, so a step budget trips here at the
  // same term on every NumThreads.
  return !Gate || Gate->charge(Terms);
}

Dnf Dnf::product(const Dnf &A, const Dnf &B, size_t SoftCap,
                 const AtomEval &Eval, support::InvariantSink *Sink,
                 support::BudgetGate *Gate) {
  Dnf Result;
  // An exhausted gate yields false — a sound under-approximation, flagged
  // to the caller via the gate itself.
  if (!chargeProduct(A.Cubes.size() * B.Cubes.size(), Sink, Gate))
    return Result;
  // Reserve for the full cross product, clamped so a huge (soon-pruned)
  // product does not balloon the allocation.
  size_t Hint = A.Cubes.size() * B.Cubes.size();
  Result.Cubes.reserve(SoftCap > 0 ? std::min(Hint, SoftCap + 1) : Hint);
  for (const Cube &CA : A.Cubes) {
    for (const Cube &CB : B.Cubes) {
      if (auto C = Cube::conjoin(CA, CB))
        Result.Cubes.push_back(std::move(*C));
    }
  }
  if (support::metricsEnabled()) {
    auto &Reg = support::MetricRegistry::global();
    static auto &Calls = Reg.counter("optabs_dnf_product_calls_total");
    static auto &Cubes = Reg.histogram("optabs_dnf_product_cubes");
    Calls.add(1);
    Cubes.record(Result.Cubes.size());
  }
  if (SoftCap > 0 && Result.Cubes.size() > SoftCap) {
    // Sound mid-product pruning: keep the cap's worth of shortest cubes,
    // preferring a satisfied cube when one exists so the progress invariant
    // can be maintained downstream. Unlike dropK, no satisfied cube need
    // exist here: the product of a single source cube's substitution may
    // well be unsatisfied under the current (p, d) even though the overall
    // formula is satisfied.
    Result.sortBySize();
    Result.simplify();
    if (Result.Cubes.size() > SoftCap) {
      std::vector<Cube> Kept(Result.Cubes.begin(),
                             Result.Cubes.begin() + (SoftCap - 1));
      bool HaveSatisfied = false;
      for (const Cube &C : Kept) {
        if (C.eval(Eval)) {
          HaveSatisfied = true;
          break;
        }
      }
      size_t Extra = SoftCap - 1;
      for (size_t I = SoftCap - 1; !HaveSatisfied && I < Result.Cubes.size();
           ++I) {
        if (Result.Cubes[I].eval(Eval)) {
          Extra = I;
          HaveSatisfied = true;
        }
      }
      Kept.push_back(Result.Cubes[Extra]);
      // Retention invariant of the pruning path: whenever a satisfied cube
      // existed anywhere in the full product, the kept prefix must still
      // contain one - otherwise the downstream dropk progress guarantee is
      // silently broken mid-product.
      if (HaveSatisfied && !Kept.back().eval(Eval)) {
        bool KeptSatisfied = false;
        for (const Cube &C : Kept) {
          if (C.eval(Eval)) {
            KeptSatisfied = true;
            break;
          }
        }
        if (!KeptSatisfied)
          support::reportInvariant(
              Sink, "product-softcap-retention", "Dnf::product",
              "soft-cap pruning dropped every satisfied cube of a " +
                  std::to_string(Result.Cubes.size()) + "-cube product");
      }
      Result.Cubes = std::move(Kept);
    }
  }
  return Result;
}

std::string Dnf::toString(
    const std::function<std::string(AtomId)> &AtomName) const {
  if (isFalse())
    return "false";
  if (isTrue())
    return "true";
  std::string S;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    if (I > 0)
      S += " \\/ ";
    const Cube &C = Cubes[I];
    if (C.isTrue()) {
      S += "true";
      continue;
    }
    if (C.size() > 1 && Cubes.size() > 1)
      S += "(";
    for (size_t J = 0; J < C.size(); ++J) {
      if (J > 0)
        S += " /\\ ";
      Lit L = C.literals()[J];
      if (L.isNeg())
        S += "!";
      S += AtomName(L.atom());
    }
    if (C.size() > 1 && Cubes.size() > 1)
      S += ")";
  }
  return S;
}

} // namespace formula
} // namespace optabs
