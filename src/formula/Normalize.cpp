//===- Normalize.cpp - Semantic DNF normalization ----------------------------===//

#include "formula/Normalize.h"

#include "support/FlatIndex.h"

#include <algorithm>

namespace optabs {
namespace formula {

namespace {

/// Scratch buffers reused by every refinement and merge round on this
/// thread, so neither allocates once the buffers reach their working size.
struct Scratch {
  /// Located literals of the cube being refined as (location id << 32) |
  /// raw literal; sorting groups them by location.
  std::vector<uint64_t> Grouped;
  std::vector<Lit> Out;
  std::vector<uint64_t> Hashes;
  support::FlatIndex Index;
  std::vector<size_t> Members;
};

Scratch &scratch() {
  thread_local Scratch S;
  return S;
}

Lit litOfRaw(uint32_t Raw) {
  return (Raw & 1) ? Lit::neg(Raw >> 1) : Lit::pos(Raw >> 1);
}

} // namespace

uint32_t LocationTable::fill(AtomId A) {
  if (A >= AtomLoc.size())
    AtomLoc.resize(std::max<size_t>(size_t(A) + 1, 2 * AtomLoc.size()),
                   Unknown);
  std::optional<LocationInfo> Info = Loc ? Loc(A) : std::nullopt;
  uint32_t Id = Independent;
  if (Info) {
    assert(std::find(Info->Values.begin(), Info->Values.end(), A) !=
               Info->Values.end() &&
           "a location lists the atom it was asked about");
    AtomId Key = *std::min_element(Info->Values.begin(), Info->Values.end());
    auto [It, Fresh] =
        ByKey.emplace(Key, static_cast<uint32_t>(Exhaustive.size()));
    if (Fresh) {
      Values.insert(Values.end(), Info->Values.begin(), Info->Values.end());
      ValueBegin.push_back(static_cast<uint32_t>(Values.size()));
      Exhaustive.push_back(Info->Exhaustive);
    }
    Id = It->second;
  }
  AtomLoc[A] = Id;
  return Id;
}

bool refineCubeByLocations(Cube &C, LocationTable &Locs) {
  // One pass: independent literals go straight to the output, located ones
  // are sorted by (location, literal) so each location's literals form one
  // run. The rules only ever drop literals of a location or replace them
  // by one positive, so an untouched run leaves the cube as it was.
  Scratch &S = scratch();
  S.Grouped.clear();
  S.Out.clear();
  for (Lit L : C.literals()) {
    uint32_t Id = Locs.locationOf(L.atom());
    if (Id == LocationTable::Independent)
      S.Out.push_back(L);
    else
      S.Grouped.push_back((static_cast<uint64_t>(Id) << 32) | L.raw());
  }
  if (S.Grouped.empty())
    return true;
  std::sort(S.Grouped.begin(), S.Grouped.end());

  bool Changed = false;
  const size_t N = S.Grouped.size();
  for (size_t Begin = 0, End = 0; Begin < N; Begin = End) {
    const uint32_t Id = static_cast<uint32_t>(S.Grouped[Begin] >> 32);
    End = Begin + 1;
    while (End < N && (S.Grouped[End] >> 32) == Id)
      ++End;
    size_t NumPositive = 0;
    Lit Positive;
    for (size_t I = Begin; I < End; ++I) {
      Lit L = litOfRaw(static_cast<uint32_t>(S.Grouped[I]));
      if (!L.isNeg()) {
        ++NumPositive;
        Positive = L;
      }
    }
    if (NumPositive > 1)
      return false; // two distinct values of one location
    if (NumPositive == 1) {
      // Any negative literal of the same location is implied (different
      // value) or contradictory (same value, impossible here since Cube
      // construction rejects complementary pairs).
      S.Out.push_back(Positive);
      Changed |= End - Begin > 1;
      continue;
    }
    // Negatives only.
    if (Locs.exhaustive(Id)) {
      size_t Remaining = 0;
      AtomId Last = 0;
      for (const AtomId *V = Locs.valuesBegin(Id); V != Locs.valuesEnd(Id);
           ++V) {
        uint64_t Neg = (static_cast<uint64_t>(Id) << 32) | Lit::neg(*V).raw();
        if (!std::binary_search(S.Grouped.begin() + Begin,
                                S.Grouped.begin() + End, Neg)) {
          ++Remaining;
          Last = *V;
        }
      }
      if (Remaining == 0)
        return false; // no value left for this location
      if (Remaining == 1) {
        S.Out.push_back(Lit::pos(Last));
        Changed = true;
        continue;
      }
    }
    for (size_t I = Begin; I < End; ++I)
      S.Out.push_back(litOfRaw(static_cast<uint32_t>(S.Grouped[I])));
  }
  if (!Changed)
    return true;
  return C.reset(S.Out.data(), S.Out.data() + S.Out.size());
}

namespace {

/// Order-independent (commutative) hash of one literal, mixed well enough
/// that sums of literal hashes rarely collide. Collisions are handled by an
/// exact check, so this only affects speed.
uint64_t litHash(Lit L) {
  uint64_t X = L.raw() + 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Commutative hash of a whole cube: the sum of its literal hashes. A
/// one-literal substitution is a constant-time hash update, which is what
/// lets mergeRound probe for partner cubes without materializing them.
uint64_t cubeHash(const Cube &C) {
  uint64_t H = 0;
  for (Lit L : C.literals())
    H += litHash(L);
  return H;
}

/// True when A with \p La removed equals B with \p Lb removed, i.e. B is A
/// with one literal substituted. Both literal lists are sorted and
/// duplicate-free; La must occur in A and Lb in B for a match.
bool sameExcept(const Cube &A, Lit La, const Cube &B, Lit Lb) {
  if (A.size() != B.size())
    return false;
  const Lit *PA = A.literals().begin(), *EA = A.literals().end();
  const Lit *PB = B.literals().begin(), *EB = B.literals().end();
  bool SkippedA = false, SkippedB = false;
  while (PA != EA && PB != EB) {
    if (!SkippedA && *PA == La) {
      ++PA;
      SkippedA = true;
      continue;
    }
    if (!SkippedB && *PB == Lb) {
      ++PB;
      SkippedB = true;
      continue;
    }
    if (*PA != *PB)
      return false;
    ++PA;
    ++PB;
  }
  if (PA != EA && !SkippedA && *PA == La) {
    ++PA;
    SkippedA = true;
  }
  if (PB != EB && !SkippedB && *PB == Lb) {
    ++PB;
    SkippedB = true;
  }
  return PA == EA && PB == EB && SkippedA && SkippedB;
}

/// One round of complementary-literal and value-complete merging. Returns
/// true if anything changed. The candidate scan order (ascending cube
/// index, literal order within the cube, complementary before
/// value-complete) fixes which merge fires first, so the fixpoint result
/// is deterministic.
bool mergeRound(std::vector<Cube> &Cubes, LocationTable &Locs) {
  // Index cubes by commutative hash: the partner of a one-literal
  // substitution is found by adjusting the hash in O(1) and verifying the
  // (rare) candidates exactly. Cubes are duplicate-free here (subsumption
  // ran just before), so a verified match is unique.
  Scratch &S = scratch();
  S.Hashes.resize(Cubes.size());
  S.Index.clear();
  S.Index.reserve(Cubes.size());
  for (size_t I = 0; I < Cubes.size(); ++I) {
    S.Hashes[I] = cubeHash(Cubes[I]);
    S.Index.insert(S.Hashes[I], static_cast<uint32_t>(I));
  }
  // First cube whose literals are Cubes[I] with La replaced by Lb; -1 if
  // absent. Equivalent to a linear scan for the substituted literal list.
  auto FindSubst = [&](size_t I, Lit La, Lit Lb) -> int {
    uint64_t H = S.Hashes[I] - litHash(La) + litHash(Lb);
    int Best = -1;
    S.Index.forEach(H, [&](uint32_t J) {
      if ((Best < 0 || static_cast<int>(J) < Best) &&
          sameExcept(Cubes[I], La, Cubes[J], Lb))
        Best = static_cast<int>(J);
    });
    return Best;
  };

  for (size_t I = 0; I < Cubes.size(); ++I) {
    for (Lit L : Cubes[I].literals()) {
      // Complementary merge: X u {l} and X u {!l} -> X. The merged cube
      // is the lower-index one minus its own copy of the differing
      // literal, built in place.
      int Partner = FindSubst(I, L, L.negate());
      if (Partner >= 0 && Partner != static_cast<int>(I)) {
        size_t A = std::min(I, static_cast<size_t>(Partner));
        size_t B = std::max(I, static_cast<size_t>(Partner));
        Cubes[A].remove(A == I ? L : L.negate());
        Cubes.erase(Cubes.begin() + B);
        return true;
      }

      // Value-complete merge: X u {a_i} present for every value of an
      // exhaustive location -> X.
      if (L.isNeg())
        continue;
      uint32_t Id = Locs.locationOf(L.atom());
      if (Id == LocationTable::Independent || !Locs.exhaustive(Id) ||
          Locs.numValues(Id) < 2)
        continue;
      S.Members.clear();
      bool Complete = true;
      for (const AtomId *V = Locs.valuesBegin(Id); V != Locs.valuesEnd(Id);
           ++V) {
        int At = FindSubst(I, L, Lit::pos(*V));
        if (At < 0) {
          Complete = false;
          break;
        }
        S.Members.push_back(static_cast<size_t>(At));
      }
      if (!Complete)
        continue;
      std::sort(S.Members.begin(), S.Members.end());
      S.Members.erase(std::unique(S.Members.begin(), S.Members.end()),
                      S.Members.end());
      // Cubes[I] is itself a member (the value L.atom() maps to it), so it
      // can give up its literals to the merged cube.
      Cubes[I].remove(L);
      Cube Merged = std::move(Cubes[I]);
      for (size_t J = S.Members.size(); J-- > 0;)
        Cubes.erase(Cubes.begin() + S.Members[J]);
      Cubes.push_back(std::move(Merged));
      return true;
    }
  }
  return false;
}

} // namespace

void semanticNormalize(Dnf &D, const CubeRefiner &Refine,
                       LocationTable &Locs) {
  std::vector<Cube> Cubes = D.takeCubes();
  size_t Kept = 0;
  for (size_t I = 0; I < Cubes.size(); ++I) {
    if (!refineCubeByLocations(Cubes[I], Locs))
      continue;
    if (Refine) {
      std::optional<Cube> R = Refine(Cubes[I]);
      if (!R)
        continue;
      Cubes[I] = std::move(*R);
    }
    if (Kept != I)
      Cubes[Kept] = std::move(Cubes[I]);
    ++Kept;
  }
  Cubes.erase(Cubes.begin() + Kept, Cubes.end());

  while (true) {
    // Subsumption first keeps the candidate set small for merging.
    D = Dnf::fromCubes(std::move(Cubes));
    D.sortBySize();
    D.simplify();
    Cubes = D.takeCubes();
    if (!mergeRound(Cubes, Locs))
      break;
  }
  D = Dnf::fromCubes(std::move(Cubes));
}

} // namespace formula
} // namespace optabs
