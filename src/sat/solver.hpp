#pragma once
// Conflict-driven clause-learning (CDCL) SAT solver.
//
// This is the engine underneath the paper's security study: the oracle-
// guided SAT attack [8]/[37], Double DIP [12] and our SAT-based equivalence
// checker all run on it. Architecture follows MiniSat: two-watched-literal
// propagation, first-UIP conflict analysis with clause minimization, VSIDS
// decision heuristic with phase saving, Luby restarts, and activity/LBD-
// driven learnt-clause database reduction. A learnt clause that would
// backjump over more than kChronoLevels levels backtracks one level instead
// (chronological backtracking: Nadel & Ryvchin, SAT 2018, with the trail
// and watch invariants of Möhle & Biere, SAT 2019): literals keep their
// true levels, so the trail may hold a literal below the level of a literal
// before it, and a conflict may sit below the current level.
//
// Additions for this project:
//  * solve() takes assumptions, enabling the incremental DIP loop without
//    re-encoding the miter each iteration.
//  * A resource budget (wall-clock seconds / conflicts); exceeding it
//    returns Result::Unknown — exactly the "t-o" semantics of Table IV.
//  * One search: the heuristic constants below are fixed, so every
//    campaign, golden and benchmark runs the same deterministic solver.
//
// Data layout, chosen for propagate(), which is most of the runtime:
//  * Clauses live inline in one flat array of 32-bit words: a header (size,
//    learnt/deleted flags with the LBD, activity) followed by the literal
//    codes. A ClauseRef is a word offset, so a clause visit is one
//    dependent load. garbage_collect slides the live clauses down in order.
//  * A two-literal clause is settled from its watcher alone: the watcher's
//    cref carries a flag and its blocker is the other literal.
//  * The VSIDS heap stores {activity, var} pairs, so sifting compares
//    adjacent memory.
//  * Assignments are indexed by literal code: value(Lit) is one load.
// The layout is invisible to the search: compaction keeps clause order, a
// binary conflict or reason is put in the literal order the long-clause
// path leaves, and the heap keeps MiniSat's comparisons. (Chronological
// backtracking does change the search, but only of a solve that jumps that
// far; a search whose trail stays level-ordered is the plain backjumping
// one.)
//
// Solver is the only implementation of the abstract sat::SolverBackend
// interface (sat/backend.hpp). The nested Budget/Stats/Result names are
// aliases for the backend-layer types.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "sat/backend.hpp"
#include "sat/types.hpp"

namespace gshe::sat {

class Solver final : public SolverBackend {
public:
    using Result = SolveResult;
    using Budget = SolverBudget;
    using Stats = SolverStats;

    Solver() = default;
    // Not copyable: arena_ views the block this object owns.
    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    // ---- problem construction ----------------------------------------------
    Var new_var() override;
    int num_vars() const override { return static_cast<int>(level_.size()); }

    /// Adds a clause. Returns false if the formula is already unsatisfiable
    /// at the root level (empty clause or conflicting units).
    bool add_clause(Clause c) override;
    using SolverBackend::add_clause;

    std::size_t num_clauses() const override { return num_clauses_; }

    // ---- solving -----------------------------------------------------------
    Result solve(const std::vector<Lit>& assumptions) override;
    using SolverBackend::solve;

    /// Model value after Result::Sat (Undef for never-assigned vars).
    LBool model_value(Var v) const override {
        return model_.at(static_cast<std::size_t>(v));
    }

    void set_budget(const Budget& b) override { budget_ = b; }
    using SolverBackend::set_budget;
    const Stats& stats() const override { return stats_; }

private:
    // ---- clause arena --------------------------------------------------------
    // Each clause is a run of words in arena_:
    //   [0]     size    literals
    //   [1]     flags   kLearntBit | kDeletedBit | LBD << kLbdShift
    //   [2..3]  activity, a double copied in and out with std::memcpy
    //   [4..]   literal codes (Lit::code())
    // A ClauseRef is the word offset of a header.
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef kNoReason = std::numeric_limits<ClauseRef>::max();
    static constexpr std::uint32_t kHeaderWords = 4;
    static constexpr std::uint32_t kLearntBit = 1;
    static constexpr std::uint32_t kDeletedBit = 2;
    static constexpr std::uint32_t kLbdShift = 2;
    // Set in Watcher::cref when the clause has two literals; arena offsets
    // stay below it.
    static constexpr ClauseRef kBinaryWatch = ClauseRef{1} << 31;

    static Lit lit_of(std::uint32_t word) {
        return Lit::from_code(static_cast<std::int32_t>(word));
    }
    static std::uint32_t word_of(Lit l) { return static_cast<std::uint32_t>(l.code()); }

    std::uint32_t clause_size(ClauseRef cr) const { return arena_[cr]; }
    ClauseRef next_clause(ClauseRef cr) const {
        return cr + kHeaderWords + arena_[cr];
    }
    bool is_learnt(ClauseRef cr) const { return (arena_[cr + 1] & kLearntBit) != 0; }
    bool is_deleted(ClauseRef cr) const { return (arena_[cr + 1] & kDeletedBit) != 0; }
    std::int32_t clause_lbd(ClauseRef cr) const {
        return static_cast<std::int32_t>(arena_[cr + 1] >> kLbdShift);
    }
    double activity(ClauseRef cr) const {
        double a;
        std::memcpy(&a, &arena_[cr + 2], sizeof a);
        return a;
    }
    void set_activity(ClauseRef cr, double a) {
        std::memcpy(&arena_[cr + 2], &a, sizeof a);
    }
    Lit clause_lit(ClauseRef cr, std::uint32_t k) const {
        return lit_of(arena_[cr + kHeaderWords + k]);
    }
    void set_clause_lit(ClauseRef cr, std::uint32_t k, Lit l) {
        arena_[cr + kHeaderWords + k] = word_of(l);
    }
    /// A binary reason is enqueued from its watcher, which leaves the
    /// arena order as it was; put the literal of `implied` first, where
    /// conflict analysis expects a reason's implied literal.
    void put_implied_first(ClauseRef reason, Var implied);

    struct Watcher {
        ClauseRef cref;  // | kBinaryWatch for a two-literal clause
        Lit blocker;     // a literal of the clause; of two, the other one
    };

    // Assignment / trail. vals_ is indexed by Lit::code(); both literals of
    // a variable are written together.
    LBool value(Lit l) const { return vals_[static_cast<std::size_t>(l.code())]; }
    LBool value(Var v) const { return vals_[2 * static_cast<std::size_t>(v)]; }
    int level_of(Var v) const { return level_[static_cast<std::size_t>(v)]; }
    int current_level() const { return static_cast<int>(trail_lim_.size()); }

    /// Assigns `l` at `level`, which is current_level() except for an
    /// implication of a literal below it (chronological backtracking).
    void enqueue(Lit l, ClauseRef reason, int level);
    ClauseRef propagate();
    void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
    /// Unassigns every literal above `level`; the others stay on the trail,
    /// in order, and are propagated again.
    void backtrack_to(int level);
    /// Highest level among the literals of `cr` from index `from` on.
    int max_level(ClauseRef cr, std::uint32_t from) const;
    /// Moves the literal at index k into watch slot `slot` (0 or 1),
    /// moving the watchers of a long clause with it.
    void place_in_watch(ClauseRef cr, std::uint32_t slot, std::uint32_t k);
    void unwatch(Lit l, ClauseRef cr);
    /// Backtracks to the level of a conflict, which may sit below
    /// current_level(). Returns true when one literal of the conflict is on
    /// that level: it is then enqueued with the conflict as reason and
    /// there is nothing to learn.
    bool backtrack_to_conflict(ClauseRef conflict, int conflict_level);

    // Conflict analysis.
    void analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level);
    bool literal_redundant(Lit l, std::uint32_t abstract_levels);
    std::int32_t compute_lbd(const Clause& c);

    // Decision heuristic.
    void bump_var(Var v);
    void decay_var_activity() { var_inc_ /= kVarDecay; }
    void bump_clause(ClauseRef cr);
    void decay_clause_activity() { cla_inc_ /= kClauseDecay; }
    Lit pick_branch_lit();
    void heap_insert(Var v);
    Var heap_pop();
    void heap_up(int i);
    void heap_down(int i);
    bool heap_contains(Var v) const { return heap_pos_[static_cast<std::size_t>(v)] >= 0; }

    // Clause management.
    ClauseRef alloc_clause(const Clause& lits, bool learnt, std::int32_t lbd = 0);
    void grow_arena(std::size_t words);  // appends `words` zero words
    void attach(ClauseRef cref);
    void detach(ClauseRef cref);
    void reduce_learnt_db();
    bool clause_locked(ClauseRef cref) const;

    // Clause arena: delete_clause detaches + tombstones (idempotent);
    // garbage_collect compacts arena_ and rewrites every stored ClauseRef
    // (watchers, reasons, learnts_). Only learnt reduction deletes clauses,
    // and GC runs only after it, from a point that holds no local ClauseRef.
    void delete_clause(ClauseRef cref);
    void garbage_collect();
    void maybe_gc();

    bool is_assumption(Lit l) const {
        const auto code = static_cast<std::size_t>(l.code());
        return code < assume_mark_.size() && assume_mark_[code] != 0;
    }

    bool budget_exhausted() const;
    /// Luby restart-interval multiplier for the n-th restart (integer
    /// arithmetic, so the restart schedule is platform-identical).
    static std::uint64_t luby(std::uint64_t i);

    // Heuristic constants.
    static constexpr double kVarDecay = 0.95;
    static constexpr double kClauseDecay = 0.999;
    static constexpr std::uint64_t kRestartBase = 128;  ///< conflicts per Luby unit
    /// Learnt clauses before the first learnt-DB reduction; the threshold
    /// grows by half at each reduction.
    static constexpr std::uint64_t kReduceBase = 4096;
    /// A learnt clause that would backjump over more than this many levels
    /// backtracks one level instead: the threshold T of Nadel & Ryvchin,
    /// "Chronological Backtracking" (SAT 2018), at the value they ran.
    static constexpr int kChronoLevels = 100;
    static constexpr std::int32_t kGlueKeepLbd = 2;     ///< reduce never drops LBD <= this

    Budget budget_;
    Stats stats_;
    Timer solve_timer_;

    // The arena's block grows with std::realloc, not std::vector's
    // allocate-copy-free: glibc moves a large mmapped block with mremap, so
    // growing never holds two copies of the arena at once (on the
    // superblue miters that transient set the process's peak RSS).
    // arena_ views the words in use; std::span::operator[] is
    // bounds-checked under _GLIBCXX_ASSERTIONS.
    struct FreeWords {
        void operator()(std::uint32_t* p) const { std::free(p); }
    };
    std::unique_ptr<std::uint32_t[], FreeWords> arena_block_;
    std::size_t arena_capacity_ = 0;  // words allocated in arena_block_
    std::span<std::uint32_t> arena_;
    std::vector<ClauseRef> learnts_;
    std::size_t num_clauses_ = 0;  // live clauses in arena_
    // Deleted clauses still in arena_; maybe_gc() reclaims them once they
    // are half of all clauses.
    std::size_t tombstones_ = 0;

    std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::code()
    std::vector<LBool> vals_;                    // indexed by Lit::code()
    std::vector<ClauseRef> reason_;
    std::vector<int> level_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;

    // Binary max-heap of vars keyed by activity. Every entry's key equals
    // activity_[var]: bump_var updates it and rescaling multiplies both.
    struct HeapEntry {
        double act;
        Var var;
    };
    std::vector<double> activity_;
    std::vector<HeapEntry> heap_;
    std::vector<int> heap_pos_;  // var -> index in heap_, -1 if absent
    std::vector<char> polarity_; // saved phase (1 = last assigned true)
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;

    // analyze() scratch.
    std::vector<char> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_clear_;

    // compute_lbd() scratch: per-decision-level stamps. A level is counted
    // once per call when its stamp is bumped to the current lbd_stamp_.
    std::vector<std::uint64_t> level_stamp_;
    std::uint64_t lbd_stamp_ = 0;

    // Assumption-literal marks for the current search (indexed by
    // Lit::code()), used by the mid-search assumption-conflict check.
    std::vector<char> assume_mark_;
    std::vector<std::int32_t> assume_marked_codes_;

    std::vector<LBool> model_;  // snapshot of the last satisfying assignment

    Result search(const std::vector<Lit>& assumptions);

    bool ok_ = true;  // false once root-level conflict is proven
};

}  // namespace gshe::sat
