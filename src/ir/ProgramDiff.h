//===- ProgramDiff.h - Content hashing & versioned program diffs -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental re-analysis support: per-procedure content hashes, program
/// fingerprints captured at registration time, version diffs, and per-check
/// dependence footprints.
///
/// The analysis service caches whole-program forward runs and learned
/// verdicts, each stamped with the program version it was computed on.
/// exactFor below decides, from the two versions' fingerprints, which
/// checks of the live version such an artifact is still exact for.
///
/// The soundness contract has three pieces:
///
///  * Procedure hashes are *id-inclusive*: they fold the statement DAG
///    structure, raw StmtId/CommandId values, command kinds, raw operand
///    entity ids, and the names those ids intern to. Hash-equal therefore
///    means the procedure is byte-identical *in place*: every id a cached
///    artifact recorded against the old program (check indices, trace
///    command ids, state variable indices) denotes the same thing in the
///    new program. Edits that shift the id layout of untouched procedures
///    (e.g. inserting a command early in the file) conservatively dirty
///    every shifted procedure.
///
///  * Cleanliness additionally requires liveness-hash equality. The forward
///    engine prunes dead variables using per-command live-out sets, which
///    depend on *continuations* - code sequenced after a command, possibly
///    in other procedures. A procedure whose own text is untouched can
///    still produce different (pruned) states when an edit elsewhere
///    changes what is live across it, so a check is clean only when every
///    procedure in its footprint has both hashes unchanged.
///
///  * Per-check footprints over-approximate "procedures whose commands may
///    execute before the check" along any path from main. The disjunctive
///    states the driver reads at a check - and every counterexample trace
///    ending at it - are functions of that prefix only, so a check whose
///    footprint is entirely clean sees bitwise-identical states in the new
///    program.
///
/// Programs whose entity tables differ in size, or whose main procedure
/// moved, are *incomparable*: parameter spaces and state bit-widths may
/// differ, and the diff reports every procedure dirty (full invalidation).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_IR_PROGRAMDIFF_H
#define OPTABS_IR_PROGRAMDIFF_H

#include "ir/Program.h"
#include "support/BitSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace optabs {
namespace ir {

class CommandLiveness;

/// An immutable snapshot of everything the diff needs to know about one
/// registered program version. Captured at registration time so that
/// diffing never reads the retiring Program object (which the scheduler
/// may still be mutating through lazy entity interning).
struct ProgramFingerprint {
  struct ProcPrint {
    std::string Name;
    uint64_t ContentHash = 0;  ///< id-inclusive statement-DAG hash
    uint64_t LivenessHash = 0; ///< hash of the proc's command live-out sets
  };

  std::vector<ProcPrint> Procs; ///< indexed by ProcId

  // Entity-table shape. Any mismatch makes two versions incomparable.
  uint32_t NumVars = 0, NumGlobals = 0, NumFields = 0, NumAllocs = 0,
           NumMethods = 0, NumSymbols = 0;
  uint32_t NumChecks = 0;
  uint32_t MainProc = ~0u; ///< index of main, ~0u when unset
};

/// Fingerprints \p P using the already-computed liveness \p L.
ProgramFingerprint fingerprintProgram(const Program &P,
                                      const CommandLiveness &L);

/// Convenience overload computing liveness internally.
ProgramFingerprint fingerprintProgram(const Program &P);

/// Id-inclusive content hash of one procedure's statement DAG (see the
/// file comment for what it folds). Exposed for tests.
uint64_t procContentHash(const Program &P, ProcId Proc);

/// The result of diffing a retiring fingerprint against its replacement.
struct ProgramDiff {
  /// False when entity shapes or main differ: parameter spaces may not
  /// line up and nothing stays exact. DirtyProcs then covers every
  /// procedure of the new program.
  bool Comparable = false;

  /// Over the NEW program's procedure indices: true when the procedure is
  /// new, renamed, content-changed, or liveness-changed.
  BitSet DirtyProcs;

  /// Names of the dirty procedures, in procedure-index order (for
  /// protocol reporting).
  std::vector<std::string> DirtyProcNames;

  size_t numDirty() const { return DirtyProcs.count(); }
};

/// Diffs two fingerprints. \p Old is the retiring version, \p New the one
/// replacing it.
ProgramDiff diffPrograms(const ProgramFingerprint &Old,
                         const ProgramFingerprint &New);

/// What an artifact computed on one program version is still exact for on
/// the live version: the one cache-validity rule (see exactFor).
struct Exactness {
  /// Over the live version's checks: set where the artifact is exact.
  BitSet Checks;
  /// Whole-program identity: comparable, the same procedures, and none of
  /// them dirty. Forward runs that go to or come from disk need this.
  bool Identical = false;
};

/// The one cache-validity rule. An artifact (a cached forward run, a stored
/// verdict, a queued job) computed on version \p From is exact on \p Live
/// for every check C such that the two versions are comparable and no
/// procedure of C's live dependence footprint (\p LiveFootprints[C], from
/// checkFootprints) is dirty. \p Diff, when non-null, receives the diff
/// the answer was derived from.
Exactness exactFor(const ProgramFingerprint &From,
                   const ProgramFingerprint &Live,
                   const std::vector<BitSet> &LiveFootprints,
                   ProgramDiff *Diff = nullptr);

/// For every check of \p P, the set of procedures (as a BitSet over
/// procedure indices) whose commands may execute before control reaches
/// the check on some path from main. Always includes the check's own
/// enclosing procedure. Checks unreachable from main get the empty set
/// plus their enclosing procedure.
std::vector<BitSet> checkFootprints(const Program &P);

} // namespace ir
} // namespace optabs

#endif // OPTABS_IR_PROGRAMDIFF_H
