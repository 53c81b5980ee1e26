//===- ProgramDiff.cpp - Content hashing & versioned program diffs --------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "ir/ProgramDiff.h"

#include "ir/Liveness.h"

#include <cassert>

namespace optabs {
namespace ir {

namespace {

//===----------------------------------------------------------------------===//
// Hashing primitives (FNV-1a over 64-bit lanes).
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

inline uint64_t mix(uint64_t H, uint64_t V) {
  // Fold the value byte-agnostically but cheaply: one multiply per lane is
  // plenty for a change-detection hash (we never unhash).
  return (H ^ (V + 0x9e3779b97f4a7c15ULL)) * FnvPrime;
}

inline uint64_t mixStr(uint64_t H, const std::string &S) {
  H = mix(H, S.size());
  for (char C : S)
    H = mix(H, static_cast<unsigned char>(C));
  return H;
}

/// Folds one command: kind, raw id, every operand id, and the names the
/// valid operand ids intern to (so a renumbered entity table can never
/// collide with an unchanged one).
uint64_t hashCommand(const Program &P, CommandId Id) {
  const Command &C = P.command(Id);
  uint64_t H = FnvOffset;
  H = mix(H, static_cast<uint64_t>(C.Kind));
  H = mix(H, Id.index());
  H = mix(H, C.Dst.Value);
  H = mix(H, C.Src.Value);
  H = mix(H, C.Global.Value);
  H = mix(H, C.Field.Value);
  H = mix(H, C.Alloc.Value);
  H = mix(H, C.Method.Value);
  H = mix(H, C.Callee.Value);
  H = mix(H, C.Check.Value);
  if (C.Dst.isValid())
    H = mixStr(H, P.varName(C.Dst));
  if (C.Src.isValid())
    H = mixStr(H, P.varName(C.Src));
  if (C.Global.isValid())
    H = mixStr(H, P.globalName(C.Global));
  if (C.Field.isValid())
    H = mixStr(H, P.fieldName(C.Field));
  if (C.Alloc.isValid())
    H = mixStr(H, P.allocName(C.Alloc));
  if (C.Method.isValid())
    H = mixStr(H, P.methodName(C.Method));
  if (C.Callee.isValid())
    H = mixStr(H, P.proc(C.Callee).Name);
  if (C.Check.isValid()) {
    const CheckSite &CS = P.checkSite(C.Check);
    H = mix(H, CS.Var.Value);
    H = mix(H, CS.Payload.Value);
    if (CS.Payload.isValid())
      H = mixStr(H, P.symbolName(CS.Payload));
  }
  return H;
}

/// Memoized per-statement content hash. The statement pool is a DAG
/// (children may be shared), so each node hashes once.
class StmtHasher {
public:
  explicit StmtHasher(const Program &P)
      : P(P), Memo(P.numStmts(), 0), Done(P.numStmts(), false) {}

  uint64_t hash(StmtId S) {
    assert(S.index() < Memo.size());
    if (Done[S.index()])
      return Memo[S.index()];
    const Stmt &St = P.stmt(S);
    uint64_t H = FnvOffset;
    H = mix(H, static_cast<uint64_t>(St.Kind));
    H = mix(H, S.index());
    if (St.Kind == StmtKind::Atom) {
      H = mix(H, hashCommand(P, St.Cmd));
    } else {
      H = mix(H, St.Children.size());
      for (StmtId Child : St.Children)
        H = mix(H, hash(Child));
    }
    Memo[S.index()] = H;
    Done[S.index()] = true;
    return H;
  }

private:
  const Program &P;
  std::vector<uint64_t> Memo;
  std::vector<bool> Done;
};

/// Memoized per-statement liveness hash: folds the live-out set of every
/// command in the subtree (in DAG order).
class LivenessHasher {
public:
  LivenessHasher(const Program &P, const CommandLiveness &L)
      : P(P), L(L), Memo(P.numStmts(), 0), Done(P.numStmts(), false) {}

  uint64_t hash(StmtId S) {
    assert(S.index() < Memo.size());
    if (Done[S.index()])
      return Memo[S.index()];
    const Stmt &St = P.stmt(S);
    uint64_t H = FnvOffset;
    if (St.Kind == StmtKind::Atom) {
      const BitSet &Out = L.liveOut(St.Cmd);
      H = mix(H, Out.size());
      Out.forEach([&](size_t I) { H = mix(H, I); });
    } else {
      H = mix(H, St.Children.size());
      for (StmtId Child : St.Children)
        H = mix(H, hash(Child));
    }
    Memo[S.index()] = H;
    Done[S.index()] = true;
    return H;
  }

private:
  const Program &P;
  const CommandLiveness &L;
  std::vector<uint64_t> Memo;
  std::vector<bool> Done;
};

//===----------------------------------------------------------------------===//
// Footprints.
//===----------------------------------------------------------------------===//

/// Collects, per statement (memoized over the DAG), the set of procedures
/// that may run while the statement executes: union of the call-graph
/// closures of every invoked callee in the subtree.
class StmtExec {
public:
  StmtExec(const Program &P, const std::vector<BitSet> &ProcExec)
      : P(P), ProcExec(ProcExec), Memo(P.numStmts()),
        Done(P.numStmts(), false) {}

  const BitSet &execOf(StmtId S) {
    assert(S.index() < Memo.size());
    if (Done[S.index()])
      return Memo[S.index()];
    BitSet Out(P.numProcs());
    const Stmt &St = P.stmt(S);
    if (St.Kind == StmtKind::Atom) {
      const Command &C = P.command(St.Cmd);
      if (C.Kind == CmdKind::Invoke && C.Callee.isValid())
        Out.unionWith(ProcExec[C.Callee.index()]);
    } else {
      for (StmtId Child : St.Children)
        Out.unionWith(execOf(Child));
    }
    Memo[S.index()] = std::move(Out);
    Done[S.index()] = true;
    return Memo[S.index()];
  }

private:
  const Program &P;
  const std::vector<BitSet> &ProcExec;
  std::vector<BitSet> Memo;
  std::vector<bool> Done;
};

/// Walks one procedure body threading the may-have-executed-before set
/// through the statement algebra: Seq accumulates left to right, Choice
/// forks, Star feeds its own body's effect back before re-entry. Invokes
/// widen the callee's entry set; Checks record their footprint.
class FootprintWalker {
public:
  FootprintWalker(const Program &P, StmtExec &Exec,
                  std::vector<BitSet> &EntryOf, std::vector<bool> &InWorklist,
                  std::vector<uint32_t> &Worklist, std::vector<BitSet> *Before)
      : P(P), Exec(Exec), EntryOf(EntryOf), InWorklist(InWorklist),
        Worklist(Worklist), Before(Before) {}

  void walkProc(uint32_t ProcIndex) {
    BitSet Pre = EntryOf[ProcIndex];
    Pre.set(ProcIndex);
    const Procedure &Proc = P.proc(ProcId(ProcIndex));
    if (Proc.Body.isValid())
      walk(Proc.Body, Pre);
  }

private:
  void walk(StmtId S, BitSet &Pre) {
    const Stmt &St = P.stmt(S);
    switch (St.Kind) {
    case StmtKind::Atom: {
      const Command &C = P.command(St.Cmd);
      if (C.Kind == CmdKind::Invoke && C.Callee.isValid()) {
        uint32_t Callee = C.Callee.index();
        if (EntryOf[Callee].unionWith(Pre) && !InWorklist[Callee]) {
          InWorklist[Callee] = true;
          Worklist.push_back(Callee);
        }
      } else if (C.Kind == CmdKind::Check && Before && C.Check.isValid()) {
        (*Before)[C.Check.index()].unionWith(Pre);
      }
      break;
    }
    case StmtKind::Seq:
      for (StmtId Child : St.Children) {
        walk(Child, Pre);
        Pre.unionWith(Exec.execOf(Child));
      }
      break;
    case StmtKind::Choice:
      for (StmtId Child : St.Children) {
        BitSet Fork = Pre;
        walk(Child, Fork);
      }
      Pre.unionWith(Exec.execOf(S));
      break;
    case StmtKind::Star: {
      // The body may re-enter after itself, so everything the body can
      // execute precedes any command in it.
      Pre.unionWith(Exec.execOf(S));
      walk(St.Children.front(), Pre);
      break;
    }
    }
  }

  const Program &P;
  StmtExec &Exec;
  std::vector<BitSet> &EntryOf;
  std::vector<bool> &InWorklist;
  std::vector<uint32_t> &Worklist;
  std::vector<BitSet> *Before;
};

} // namespace

uint64_t procContentHash(const Program &P, ProcId Proc) {
  StmtHasher Hasher(P);
  const Procedure &Pr = P.proc(Proc);
  uint64_t H = FnvOffset;
  H = mixStr(H, Pr.Name);
  H = mix(H, Pr.Body.Value);
  if (Pr.Body.isValid())
    H = mix(H, Hasher.hash(Pr.Body));
  return H;
}

ProgramFingerprint fingerprintProgram(const Program &P,
                                      const CommandLiveness &L) {
  ProgramFingerprint F;
  F.NumVars = P.numVars();
  F.NumGlobals = P.numGlobals();
  F.NumFields = P.numFields();
  F.NumAllocs = P.numAllocs();
  F.NumMethods = P.numMethods();
  F.NumSymbols = P.numSymbols();
  F.NumChecks = P.numChecks();
  F.MainProc = P.main().Value;

  StmtHasher Content(P);
  LivenessHasher Live(P, L);
  F.Procs.reserve(P.numProcs());
  for (uint32_t I = 0; I < P.numProcs(); ++I) {
    const Procedure &Pr = P.proc(ProcId(I));
    ProgramFingerprint::ProcPrint PP;
    PP.Name = Pr.Name;
    uint64_t H = FnvOffset;
    H = mixStr(H, Pr.Name);
    H = mix(H, Pr.Body.Value);
    if (Pr.Body.isValid()) {
      H = mix(H, Content.hash(Pr.Body));
      PP.LivenessHash = Live.hash(Pr.Body);
    }
    PP.ContentHash = H;
    F.Procs.push_back(std::move(PP));
  }
  return F;
}

ProgramFingerprint fingerprintProgram(const Program &P) {
  CommandLiveness L(P);
  return fingerprintProgram(P, L);
}

ProgramDiff diffPrograms(const ProgramFingerprint &Old,
                         const ProgramFingerprint &New) {
  ProgramDiff D;
  D.DirtyProcs = BitSet(New.Procs.size());
  D.Comparable = Old.NumVars == New.NumVars &&
                 Old.NumGlobals == New.NumGlobals &&
                 Old.NumFields == New.NumFields &&
                 Old.NumAllocs == New.NumAllocs &&
                 Old.NumMethods == New.NumMethods &&
                 Old.NumSymbols == New.NumSymbols &&
                 Old.MainProc == New.MainProc;
  for (size_t I = 0; I < New.Procs.size(); ++I) {
    bool Dirty = !D.Comparable || I >= Old.Procs.size() ||
                 Old.Procs[I].Name != New.Procs[I].Name ||
                 Old.Procs[I].ContentHash != New.Procs[I].ContentHash ||
                 Old.Procs[I].LivenessHash != New.Procs[I].LivenessHash;
    if (Dirty) {
      D.DirtyProcs.set(I);
      D.DirtyProcNames.push_back(New.Procs[I].Name);
    }
  }
  return D;
}

Exactness exactFor(const ProgramFingerprint &From,
                   const ProgramFingerprint &Live,
                   const std::vector<BitSet> &LiveFootprints,
                   ProgramDiff *Diff) {
  ProgramDiff D = diffPrograms(From, Live);
  Exactness X;
  X.Checks = BitSet(LiveFootprints.size());
  X.Identical = D.Comparable && D.numDirty() == 0 &&
                From.Procs.size() == Live.Procs.size();
  if (D.Comparable)
    for (size_t C = 0; C < LiveFootprints.size(); ++C) {
      bool Clean = true;
      D.DirtyProcs.forEach([&](size_t P) {
        if (P < LiveFootprints[C].size() && LiveFootprints[C].test(P))
          Clean = false;
      });
      if (Clean)
        X.Checks.set(C);
    }
  if (Diff)
    *Diff = std::move(D);
  return X;
}

std::vector<BitSet> checkFootprints(const Program &P) {
  const uint32_t NumProcs = P.numProcs();
  std::vector<BitSet> Before(P.numChecks());
  for (uint32_t C = 0; C < P.numChecks(); ++C) {
    Before[C] = BitSet(NumProcs);
    ProcId Encl = P.checkSite(CheckId(C)).Proc;
    if (Encl.isValid())
      Before[C].set(Encl.index());
  }
  if (NumProcs == 0 || !P.main().isValid())
    return Before;

  // 1. Call-graph closure: ProcExec[p] = procedures that may run while p
  // runs to completion (p itself plus every transitively invoked callee).
  std::vector<BitSet> ProcExec(NumProcs, BitSet(NumProcs));
  for (uint32_t I = 0; I < NumProcs; ++I)
    ProcExec[I].set(I);
  // Direct call edges via a dedicated memoized statement pass.
  {
    bool Changed = true;
    // Collect direct callees once.
    std::vector<std::vector<uint32_t>> Callees(NumProcs);
    {
      for (uint32_t I = 0; I < NumProcs; ++I) {
        const Procedure &Pr = P.proc(ProcId(I));
        if (!Pr.Body.isValid())
          continue;
        std::vector<StmtId> Stack{Pr.Body};
        std::vector<bool> Local(P.numStmts(), false);
        while (!Stack.empty()) {
          StmtId S = Stack.back();
          Stack.pop_back();
          if (Local[S.index()])
            continue;
          Local[S.index()] = true;
          const Stmt &St = P.stmt(S);
          if (St.Kind == StmtKind::Atom) {
            const Command &C = P.command(St.Cmd);
            if (C.Kind == CmdKind::Invoke && C.Callee.isValid())
              Callees[I].push_back(C.Callee.index());
          } else {
            for (StmtId Child : St.Children)
              Stack.push_back(Child);
          }
        }
      }
    }
    while (Changed) {
      Changed = false;
      for (uint32_t I = 0; I < NumProcs; ++I)
        for (uint32_t Callee : Callees[I])
          Changed |= ProcExec[I].unionWith(ProcExec[Callee]);
    }
  }

  StmtExec Exec(P, ProcExec);

  // 2. Entry-set fixpoint from main: EntryOf[p] = procedures that may have
  // executed (fully or partially) before p is entered, in any context.
  std::vector<BitSet> EntryOf(NumProcs, BitSet(NumProcs));
  std::vector<bool> InWorklist(NumProcs, false);
  std::vector<bool> Reached(NumProcs, false);
  std::vector<uint32_t> Worklist{P.main().index()};
  InWorklist[P.main().index()] = true;
  FootprintWalker Fix(P, Exec, EntryOf, InWorklist, Worklist, nullptr);
  while (!Worklist.empty()) {
    uint32_t Proc = Worklist.back();
    Worklist.pop_back();
    InWorklist[Proc] = false;
    Reached[Proc] = true;
    Fix.walkProc(Proc);
  }

  // 3. Recording pass with the converged entry sets.
  FootprintWalker Record(P, Exec, EntryOf, InWorklist, Worklist, &Before);
  for (uint32_t I = 0; I < NumProcs; ++I)
    if (Reached[I])
      Record.walkProc(I);
  // The recording pass may have widened some entry set on a back edge the
  // fixpoint already saturated; it cannot (the fixpoint converged), so the
  // worklist stays empty.
  assert(Worklist.empty() && "entry fixpoint had not converged");

  return Before;
}

} // namespace ir
} // namespace optabs
