#include "sat/solver.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <utility>

namespace gshe::sat {

Var Solver::new_var() {
    const Var v = num_vars();
    vals_.push_back(LBool::Undef);
    vals_.push_back(LBool::Undef);
    reason_.push_back(kNoReason);
    level_.push_back(0);
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    polarity_.push_back(0);
    seen_.push_back(0);
    assume_mark_.push_back(0);
    assume_mark_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

bool Solver::add_clause(std::span<const Lit> lits) {
    if (!ok_) return false;
    // Root-level simplification in place: drop false/duplicate lits, detect
    // tautology.
    Clause& simplified = add_buffer_;
    simplified.assign(lits.begin(), lits.end());
    std::sort(simplified.begin(), simplified.end());
    std::size_t kept = 0;
    Lit prev = kUndefLit;
    for (std::size_t k = 0; k < simplified.size(); ++k) {
        const Lit l = simplified[k];
        if (l == prev) continue;
        if (prev != kUndefLit && l == ~prev) return true;  // tautology
        const LBool v = value(l);
        if (v == LBool::True && level_of(l.var()) == 0) return true;
        if (v == LBool::False && level_of(l.var()) == 0) {
            prev = l;
            continue;
        }
        simplified[kept++] = l;
        prev = l;
    }
    simplified.resize(kept);
    if (simplified.empty()) {
        ok_ = false;
        return false;
    }
    if (simplified.size() == 1) {
        if (value(simplified[0]) == LBool::True) return true;
        if (value(simplified[0]) == LBool::False) {
            ok_ = false;
            return false;
        }
        enqueue(simplified[0], kNoReason, current_level());
        if (propagate() != kNoReason) {
            ok_ = false;
            return false;
        }
        return true;
    }
    attach(alloc_clause(simplified, /*learnt=*/false));
    return true;
}

Solver::ClauseRef Solver::alloc_clause(const Clause& lits, bool learnt,
                                       std::int32_t lbd) {
    const std::size_t words = kHeaderWords + lits.size();
    if (arena_.size() + words > kBinaryWatch)
        throw std::length_error("sat::Solver: clause arena exceeds 2^31 words");
    const auto cref = static_cast<ClauseRef>(arena_.size());
    const auto size = static_cast<std::uint32_t>(lits.size());
    grow_arena(words);  // the activity words read 0.0
    arena_[cref] = size;
    arena_[cref + 1] =
        (static_cast<std::uint32_t>(lbd) << kLbdShift) | (learnt ? kLearntBit : 0);
    for (std::uint32_t k = 0; k < size; ++k) set_clause_lit(cref, k, lits[k]);
    ++num_clauses_;
    return cref;
}

void Solver::grow_arena(std::size_t words) {
    const std::size_t need = arena_.size() + words;
    if (need > arena_capacity_) {
        const std::size_t capacity = std::max(need, 2 * arena_capacity_);
        auto* block = static_cast<std::uint32_t*>(
            std::realloc(arena_block_.get(), capacity * sizeof(std::uint32_t)));
        if (block == nullptr) throw std::bad_alloc();
        (void)arena_block_.release();  // realloc freed or kept it
        arena_block_.reset(block);
        arena_capacity_ = capacity;
    }
    std::fill_n(arena_block_.get() + arena_.size(), words, 0u);
    arena_ = {arena_block_.get(), need};
}

void Solver::put_implied_first(ClauseRef reason, Var implied) {
    if (clause_size(reason) != 2 || clause_lit(reason, 0).var() == implied) return;
    const Lit other = clause_lit(reason, 0);
    set_clause_lit(reason, 0, clause_lit(reason, 1));
    set_clause_lit(reason, 1, other);
}

void Solver::attach(ClauseRef cref) {
    const ClauseRef tagged = clause_size(cref) == 2 ? cref | kBinaryWatch : cref;
    const Lit a = clause_lit(cref, 0);
    const Lit b = clause_lit(cref, 1);
    watches_[static_cast<std::size_t>((~a).code())].push_back({tagged, b});
    watches_[static_cast<std::size_t>((~b).code())].push_back({tagged, a});
}

void Solver::unwatch(Lit l, ClauseRef cref) {
    auto& ws = watches_[static_cast<std::size_t>((~l).code())];
    for (std::size_t j = 0; j < ws.size(); ++j)
        if ((ws[j].cref & ~kBinaryWatch) == cref) {
            ws[j] = ws.back();
            ws.pop_back();
            return;
        }
}

void Solver::detach(ClauseRef cref) {
    unwatch(clause_lit(cref, 0), cref);
    unwatch(clause_lit(cref, 1), cref);
}

void Solver::place_in_watch(ClauseRef cr, std::uint32_t slot, std::uint32_t k) {
    if (k == slot) return;
    const Lit moved = clause_lit(cr, k);
    const Lit out = clause_lit(cr, slot);
    if (k >= 2) {  // only a long clause has an unwatched literal
        unwatch(out, cr);
        watches_[static_cast<std::size_t>((~moved).code())].push_back(
            {cr, clause_lit(cr, 1 - slot)});
    }
    set_clause_lit(cr, slot, moved);
    set_clause_lit(cr, k, out);
}

int Solver::max_level(ClauseRef cr, std::uint32_t from) const {
    int lv = 0;
    for (std::uint32_t k = from; k < clause_size(cr); ++k)
        lv = std::max(lv, level_of(clause_lit(cr, k).var()));
    return lv;
}

void Solver::enqueue(Lit l, ClauseRef reason, int level) {
    const auto v = static_cast<std::size_t>(l.var());
    vals_[static_cast<std::size_t>(l.code())] = LBool::True;
    vals_[static_cast<std::size_t>((~l).code())] = LBool::False;
    reason_[v] = reason;
    level_[v] = level;
    trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        const Lit not_p = ~p;
        // An implication's level is the highest among its reason's false
        // literals: p's, unless p sits below the current level.
        const int p_level = level_of(p.var());
        ++stats_.propagations;
        auto& ws = watches_[static_cast<std::size_t>(p.code())];
        // No clause moves its watch onto ws (the new watch is a non-false
        // literal, ~p is false), so the pointers stay valid.
        Watcher* i = ws.data();
        Watcher* j = i;
        Watcher* const end = i + ws.size();
        while (i != end) {
            const Watcher w = *i++;
            // Fast path: blocker already true.
            const LBool blocker = value(w.blocker);
            if (blocker == LBool::True) {
                *j++ = w;
                continue;
            }
            ClauseRef conflict = kNoReason;
            if ((w.cref & kBinaryWatch) != 0) {
                // Two literals: the blocker is the other one, unit or false.
                *j++ = w;
                const ClauseRef cref = w.cref & ~kBinaryWatch;
                if (blocker == LBool::Undef) {
                    enqueue(w.blocker, cref, p_level);
                    continue;
                }
                // Store it as the long-clause path leaves a conflict:
                // analyze() walks it in this order.
                set_clause_lit(cref, 0, w.blocker);
                set_clause_lit(cref, 1, not_p);
                conflict = cref;
            } else {
                std::uint32_t* const lits = &arena_[w.cref + kHeaderWords];
                const std::uint32_t size = arena_[w.cref];
                // Normalize: false watched literal at position 1.
                if (lits[0] == word_of(not_p)) std::swap(lits[0], lits[1]);
                const Lit first = lit_of(lits[0]);
                if (value(first) == LBool::True) {
                    *j++ = {w.cref, first};
                    continue;
                }
                // Find a new watch.
                bool found = false;
                for (std::uint32_t k = 2; k < size; ++k) {
                    const Lit l = lit_of(lits[k]);
                    if (value(l) != LBool::False) {
                        lits[1] = lits[k];
                        lits[k] = word_of(not_p);
                        watches_[static_cast<std::size_t>((~l).code())].push_back(
                            {w.cref, first});
                        found = true;
                        break;
                    }
                }
                if (found) continue;  // watcher moved; do not keep here
                // Clause is unit or conflicting.
                *j++ = {w.cref, first};
                if (value(first) != LBool::False) {
                    enqueue(first, w.cref,
                            p_level == current_level() ? p_level
                                                       : max_level(w.cref, 1));
                    continue;
                }
                conflict = w.cref;
            }
            // Conflict: restore untouched watchers and bail out.
            while (i != end) *j++ = *i++;
            ws.resize(static_cast<std::size_t>(j - ws.data()));
            qhead_ = trail_.size();
            return conflict;
        }
        ws.resize(static_cast<std::size_t>(j - ws.data()));
    }
    return kNoReason;
}

void Solver::backtrack_to(int target_level) {
    if (current_level() <= target_level) return;
    const auto first =
        static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
    bool kept = false;
    for (std::size_t i = trail_.size(); i-- > first;) {
        const Lit x = trail_[i];
        const Var v = x.var();
        const auto vi = static_cast<std::size_t>(v);
        if (level_of(v) <= target_level) {  // out of order: stays assigned
            kept = true;
            continue;
        }
        polarity_[vi] = x.negated() ? 0 : 1;
        vals_[2 * vi] = LBool::Undef;
        vals_[2 * vi + 1] = LBool::Undef;
        reason_[vi] = kNoReason;
        if (!heap_contains(v)) heap_insert(v);
    }
    std::size_t out = first;
    if (kept)
        for (std::size_t i = first; i < trail_.size(); ++i)
            if (value(trail_[i]) != LBool::Undef) trail_[out++] = trail_[i];
    trail_.resize(out);
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    // Propagate the kept literals again. A clause whose two watches stay
    // false lost the true blocker that satisfied it, and only a visit from
    // one of those watches finds it a new watch.
    qhead_ = first;
}

bool Solver::backtrack_to_conflict(ClauseRef conflict, int conflict_level) {
    const std::uint32_t size = clause_size(conflict);
    const auto lv = [&](std::uint32_t k) {
        return level_of(clause_lit(conflict, k).var());
    };
    std::uint32_t on_level = 0;
    std::uint32_t at = 0;
    for (std::uint32_t k = 0; k < size; ++k)
        if (lv(k) == conflict_level) {
            ++on_level;
            at = k;
        }
    if (on_level == 1) {
        // The clause is unit one level down: watch its literal there and the
        // highest other one, and assert it at that one's level.
        place_in_watch(conflict, 0, at);
        std::uint32_t high = 1;
        for (std::uint32_t k = 2; k < size; ++k)
            if (lv(k) > lv(high)) high = k;
        place_in_watch(conflict, 1, high);
        backtrack_to(conflict_level - 1);
        enqueue(clause_lit(conflict, 0), conflict, lv(1));
        return true;
    }
    // Analysis backtracks below the conflict level. Two watches below it
    // would stay false while the literals on it come free, and no visit
    // would see the clause turn unit or false again: watch one that comes
    // free.
    if (lv(0) != conflict_level && lv(1) != conflict_level)
        place_in_watch(conflict, lv(0) < lv(1) ? 0 : 1, at);
    backtrack_to(conflict_level);
    return false;
}

std::int32_t Solver::compute_lbd(const Clause& c) {
    // Number of distinct decision levels; small LBD = high-quality clause.
    // O(|c|) via per-level stamps: a level is counted the first time its
    // stamp is bumped to this call's lbd_stamp_; bumping the stamp value
    // resets every mark at once, so no per-call clearing pass is needed.
    ++lbd_stamp_;
    // Indexed by level_of(), which for the (currently unassigned) asserting
    // literal is its pre-backtrack level — so size by the level ceiling, the
    // variable count, not the current trail depth.
    if (level_stamp_.size() <= level_.size())
        level_stamp_.resize(level_.size() + 1, 0);
    std::int32_t lbd = 0;
    for (Lit l : c) {
        const int lv = level_of(l.var());
        if (lv == 0) continue;
        auto& stamp = level_stamp_[static_cast<std::size_t>(lv)];
        if (stamp != lbd_stamp_) {
            stamp = lbd_stamp_;
            ++lbd;
        }
    }
    return lbd;
}

void Solver::analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level) {
    learnt.clear();
    learnt.push_back(kUndefLit);  // slot for the asserting literal

    int counter = 0;
    Lit p = kUndefLit;
    std::size_t index = trail_.size();
    ClauseRef reason = conflict;

    // First-UIP resolution walk over the trail.
    do {
        // The conflict clause is walked whole; a reason skips its implied
        // literal at index 0.
        if (p != kUndefLit) put_implied_first(reason, p.var());
        if (is_learnt(reason)) bump_clause(reason);
        const std::uint32_t size = clause_size(reason);
        for (std::uint32_t j = (p == kUndefLit ? 0 : 1); j < size; ++j) {
            const Lit q = clause_lit(reason, j);
            const auto qv = static_cast<std::size_t>(q.var());
            if (seen_[qv] || level_of(q.var()) == 0) continue;
            seen_[qv] = 1;
            bump_var(q.var());
            if (level_of(q.var()) >= current_level())
                ++counter;
            else
                learnt.push_back(q);
        }
        // Next literal to resolve on: the latest seen one of the current
        // level. On an out-of-order trail a seen literal of a lower level,
        // bound for the learnt clause, can sit above it.
        while (true) {
            const Var tv = trail_[index - 1].var();
            if (seen_[static_cast<std::size_t>(tv)] && level_of(tv) >= current_level())
                break;
            --index;
        }
        p = trail_[--index];
        reason = reason_[static_cast<std::size_t>(p.var())];
        seen_[static_cast<std::size_t>(p.var())] = 0;
        --counter;
    } while (counter > 0);
    learnt[0] = ~p;

    // Clause minimization: drop literals whose reason is subsumed.
    analyze_clear_.assign(learnt.begin(), learnt.end());
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learnt.size(); ++i)
        abstract_levels |= 1u << (level_of(learnt[i].var()) & 31);
    std::size_t out = 1;
    for (std::size_t i = 1; i < learnt.size(); ++i) {
        const auto v = static_cast<std::size_t>(learnt[i].var());
        if (reason_[v] == kNoReason || !literal_redundant(learnt[i], abstract_levels))
            learnt[out++] = learnt[i];
    }
    learnt.resize(out);
    for (Lit l : analyze_clear_) seen_[static_cast<std::size_t>(l.var())] = 0;
    analyze_clear_.clear();

    // Backtrack level = second-highest level in the learnt clause.
    if (learnt.size() == 1) {
        backtrack_level = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learnt.size(); ++i)
            if (level_of(learnt[i].var()) > level_of(learnt[max_i].var())) max_i = i;
        std::swap(learnt[1], learnt[max_i]);
        backtrack_level = level_of(learnt[1].var());
    }
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
    analyze_stack_.clear();
    analyze_stack_.push_back(l);
    const std::size_t top = analyze_clear_.size();
    while (!analyze_stack_.empty()) {
        const Lit cur = analyze_stack_.back();
        analyze_stack_.pop_back();
        const auto cv = static_cast<std::size_t>(cur.var());
        const ClauseRef r = reason_[cv];
        if (r == kNoReason) continue;  // decision reached: handled by caller guard
        put_implied_first(r, cur.var());
        const std::uint32_t size = clause_size(r);
        for (std::uint32_t j = 1; j < size; ++j) {
            const Lit q = clause_lit(r, j);
            const auto qv = static_cast<std::size_t>(q.var());
            if (seen_[qv] || level_of(q.var()) == 0) continue;
            if (reason_[qv] == kNoReason ||
                ((1u << (level_of(q.var()) & 31)) & abstract_levels) == 0) {
                // Not removable: undo marks made during this check.
                for (std::size_t k = top; k < analyze_clear_.size(); ++k)
                    seen_[static_cast<std::size_t>(analyze_clear_[k].var())] = 0;
                analyze_clear_.resize(top);
                return false;
            }
            seen_[qv] = 1;
            analyze_clear_.push_back(q);
            analyze_stack_.push_back(q);
        }
    }
    return true;
}

void Solver::bump_var(Var v) {
    const auto vi = static_cast<std::size_t>(v);
    activity_[vi] += var_inc_;
    if (activity_[vi] > 1e100) {
        for (double& a : activity_) a *= 1e-100;
        for (HeapEntry& e : heap_) e.act *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_contains(v)) {
        const int i = heap_pos_[vi];
        heap_[static_cast<std::size_t>(i)].act = activity_[vi];
        heap_up(i);
    }
}

void Solver::bump_clause(ClauseRef cr) {
    const double a = activity(cr) + cla_inc_;
    set_activity(cr, a);
    if (a > 1e20) {
        for (ClauseRef l : learnts_) set_activity(l, activity(l) * 1e-20);
        cla_inc_ *= 1e-20;
    }
}

// ---- decision heap ---------------------------------------------------------

void Solver::heap_insert(Var v) {
    heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
    heap_.push_back({activity_[static_cast<std::size_t>(v)], v});
    heap_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_up(int i) {
    const HeapEntry e = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        const HeapEntry& pe = heap_[static_cast<std::size_t>(parent)];
        if (pe.act >= e.act) break;
        heap_[static_cast<std::size_t>(i)] = pe;
        heap_pos_[static_cast<std::size_t>(pe.var)] = i;
        i = parent;
    }
    heap_[static_cast<std::size_t>(i)] = e;
    heap_pos_[static_cast<std::size_t>(e.var)] = i;
}

void Solver::heap_down(int i) {
    const HeapEntry e = heap_[static_cast<std::size_t>(i)];
    const int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_[static_cast<std::size_t>(child + 1)].act >
                                 heap_[static_cast<std::size_t>(child)].act)
            ++child;
        const HeapEntry& ce = heap_[static_cast<std::size_t>(child)];
        if (e.act >= ce.act) break;
        heap_[static_cast<std::size_t>(i)] = ce;
        heap_pos_[static_cast<std::size_t>(ce.var)] = i;
        i = child;
    }
    heap_[static_cast<std::size_t>(i)] = e;
    heap_pos_[static_cast<std::size_t>(e.var)] = i;
}

Var Solver::heap_pop() {
    const Var v = heap_[0].var;
    heap_pos_[static_cast<std::size_t>(v)] = -1;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[static_cast<std::size_t>(last.var)] = 0;
        heap_down(0);
    }
    return v;
}

Lit Solver::pick_branch_lit() {
    while (!heap_.empty()) {
        const Var v = heap_pop();
        if (value(v) == LBool::Undef)
            return Lit(v, polarity_[static_cast<std::size_t>(v)] == 0);
    }
    return kUndefLit;
}

// ---- learnt DB reduction ----------------------------------------------------

bool Solver::clause_locked(ClauseRef cref) const {
    // A reason's implied literal is at index 0, except that a binary
    // reason keeps whatever order its watcher found it in.
    const std::uint32_t candidates = clause_size(cref) == 2 ? 2 : 1;
    for (std::uint32_t k = 0; k < candidates; ++k) {
        const Lit l = clause_lit(cref, k);
        if (value(l) == LBool::True &&
            reason_[static_cast<std::size_t>(l.var())] == cref)
            return true;
    }
    return false;
}

void Solver::reduce_learnt_db() {
    // Keep glue clauses (LBD <= kGlueKeepLbd) and the most active half of
    // the rest.
    std::vector<ClauseRef> candidates;
    for (ClauseRef cr : learnts_)
        if (!is_deleted(cr) && clause_lbd(cr) > kGlueKeepLbd && !clause_locked(cr))
            candidates.push_back(cr);
    std::sort(candidates.begin(), candidates.end(),
              [&](ClauseRef a, ClauseRef b) { return activity(a) < activity(b); });
    const std::size_t remove = candidates.size() / 2;
    for (std::size_t i = 0; i < remove; ++i) delete_clause(candidates[i]);
    learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                  [&](ClauseRef cr) { return is_deleted(cr); }),
                   learnts_.end());
}

// ---- clause arena -----------------------------------------------------------

void Solver::delete_clause(ClauseRef cref) {
    if (is_deleted(cref)) return;
    detach(cref);
    arena_[cref + 1] |= kDeletedBit;
    --num_clauses_;
    ++tombstones_;
    ++stats_.removed_clauses;
}

void Solver::garbage_collect() {
    if (tombstones_ == 0) return;
    // Slide every live clause down over the tombstones. The order is
    // preserved, so watcher traversal and reduce candidate order (and with
    // them the search) are unchanged, and the survivors' old offsets stay
    // sorted for the remap. reduce_learnt_db has already dropped the
    // deleted clauses from learnts_.
    std::vector<std::pair<ClauseRef, ClauseRef>> moved;  // (old, new)
    moved.reserve(num_clauses_);
    ClauseRef out = 0;
    for (ClauseRef cr = 0; cr < arena_.size();) {
        const ClauseRef next = next_clause(cr);
        if (!is_deleted(cr)) {
            moved.emplace_back(cr, out);
            const std::uint32_t words = kHeaderWords + clause_size(cr);
            if (out != cr)
                std::memmove(&arena_[out], &arena_[cr], words * sizeof(std::uint32_t));
            out += words;
        }
        cr = next;
    }
    arena_ = arena_.first(out);
    const auto remap = [&](ClauseRef r) {
        const auto it = std::lower_bound(
            moved.begin(), moved.end(), r,
            [](const std::pair<ClauseRef, ClauseRef>& m, ClauseRef x) {
                return m.first < x;
            });
        return it != moved.end() && it->first == r ? it->second : kNoReason;
    };
    for (auto& ws : watches_)
        for (Watcher& w : ws)
            w.cref = remap(w.cref & ~kBinaryWatch) | (w.cref & kBinaryWatch);
    // Locked (reason) clauses are never deleted, so every live reason
    // remaps to a live clause.
    for (ClauseRef& r : reason_)
        if (r != kNoReason) r = remap(r);
    for (ClauseRef& cr : learnts_) cr = remap(cr);
    tombstones_ = 0;
    ++stats_.gc_runs;
}

void Solver::maybe_gc() {
    // Compact once tombstones are half of all clauses; the absolute floor
    // keeps tiny problems from thrashing.
    if (tombstones_ >= 64 && tombstones_ * 2 >= num_clauses_ + tombstones_)
        garbage_collect();
}

// ---- main search ------------------------------------------------------------

std::uint64_t Solver::luby(std::uint64_t x) {
    // Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... for x = 0, 1, 2, ...
    // (port of the MiniSat reference implementation with base 2).
    std::uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x %= size;
    }
    return 1ULL << seq;
}

bool Solver::budget_exhausted() const {
    if (stats_.conflicts > budget_.max_conflicts) return true;
    // Wall-clock checks are throttled by the caller (every 1024 conflicts).
    return solve_timer_.seconds() > budget_.max_seconds;
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
    if (!ok_) return SolveResult::Unsat;
    solve_timer_.reset();
    const SolveResult r = search(assumptions);
    // Always return at the root so the caller can add clauses incrementally.
    backtrack_to(0);
    return r;
}

SolveResult Solver::search(const std::vector<Lit>& assumptions) {
    backtrack_to(0);
    // Mark this search's assumption literals for the mid-search
    // assumption-conflict check.
    for (const std::int32_t code : assume_marked_codes_)
        assume_mark_[static_cast<std::size_t>(code)] = 0;
    assume_marked_codes_.clear();
    for (const Lit a : assumptions) {
        assume_mark_[static_cast<std::size_t>(a.code())] = 1;
        assume_marked_codes_.push_back(a.code());
    }

    std::uint64_t restart_count = 0;
    std::uint64_t conflicts_until_restart = kRestartBase * luby(restart_count);
    std::uint64_t conflicts_this_restart = 0;
    std::uint64_t next_reduce = kReduceBase;
    std::uint64_t last_budget_check = 0;

    while (true) {
        const ClauseRef conflict = propagate();
        if (conflict != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_this_restart;
            // Chronological backtracking keeps literals below the current
            // level on the trail, so a conflict can sit below it.
            const int conflict_level = max_level(conflict, 0);
            if (conflict_level == 0) {
                // Root conflict: the formula itself is refuted (assumptions
                // live on decision levels >= 1). Latch ok_ so later
                // incremental calls stay Unsat — propagate() consumed the
                // conflicting queue (qhead_), so a fresh solve would not
                // rediscover it.
                ok_ = false;
                return SolveResult::Unsat;
            }

            if (!backtrack_to_conflict(conflict, conflict_level)) {
                Clause learnt;
                int bt_level = 0;
                analyze(conflict, learnt, bt_level);
                // Never backtrack past the assumptions.
                const int assume_level =
                    std::min<int>(static_cast<int>(assumptions.size()), current_level() - 1);
                // A backtrack into the assumption prefix means the learnt
                // clause is falsified by earlier assumptions alone. Its
                // asserting literal still gets enqueued (it is implied by
                // that prefix), but if its negation IS one of the
                // assumptions, the assumption set is contradictory: answer
                // Unsat now instead of silently re-seeding and burning
                // budget until the re-seed loop trips over the false
                // assumption.
                const bool into_assumptions = bt_level < assume_level;
                // A far backjump would unassign, and the search derive again,
                // hundreds of levels the conflict did not involve: backtrack
                // one level and assert at the true level instead.
                const bool chrono = learnt.size() > 1 && !into_assumptions &&
                                    current_level() - bt_level > kChronoLevels;
                if (chrono) ++stats_.chrono_backtracks;
                backtrack_to(chrono ? current_level() - 1 : bt_level);
                if (learnt.size() == 1) {
                    if (value(learnt[0]) == LBool::False) {
                        // Learnt clauses are formula-implied (resolution over
                        // formula clauses only), so a learnt unit false at
                        // the root refutes the formula, not just the
                        // assumptions.
                        if (current_level() == 0) ok_ = false;
                        return SolveResult::Unsat;
                    }
                    if (value(learnt[0]) == LBool::Undef)
                        enqueue(learnt[0], kNoReason, 0);
                    if (into_assumptions && is_assumption(~learnt[0]))
                        return SolveResult::Unsat;
                } else {
                    const ClauseRef cref =
                        alloc_clause(learnt, /*learnt=*/true, compute_lbd(learnt));
                    attach(cref);
                    learnts_.push_back(cref);
                    ++stats_.learnt_clauses;
                    enqueue(learnt[0], cref, bt_level);
                    if (into_assumptions && is_assumption(~learnt[0]))
                        return SolveResult::Unsat;
                }
                decay_var_activity();
                decay_clause_activity();
            }

            if (stats_.conflicts - last_budget_check >= 1024) {
                last_budget_check = stats_.conflicts;
                if (budget_exhausted()) return SolveResult::Unknown;
            }
            if (conflicts_this_restart >= conflicts_until_restart) {
                ++stats_.restarts;
                ++restart_count;
                conflicts_this_restart = 0;
                conflicts_until_restart = kRestartBase * luby(restart_count);
                backtrack_to(0);
            }
            if (stats_.learnt_clauses >= next_reduce) {
                next_reduce += next_reduce / 2;
                reduce_learnt_db();
                maybe_gc();  // safe: no local ClauseRef survives to here
            }
            continue;
        }

        // No conflict: re-seed assumptions, then decide.
        if (current_level() < static_cast<int>(assumptions.size())) {
            const Lit a = assumptions[static_cast<std::size_t>(current_level())];
            const LBool v = value(a);
            if (v == LBool::True) {
                new_decision_level();  // already satisfied; dummy level
                continue;
            }
            // The assumptions conflict.
            if (v == LBool::False) return SolveResult::Unsat;
            new_decision_level();
            enqueue(a, kNoReason, current_level());
            continue;
        }

        const Lit next = pick_branch_lit();
        if (next == kUndefLit) {
            model_.resize(static_cast<std::size_t>(num_vars()));
            for (Var v = 0; v < num_vars(); ++v)
                model_[static_cast<std::size_t>(v)] = value(v);
            backtrack_to(0);
            return SolveResult::Sat;
        }
        ++stats_.decisions;
        new_decision_level();
        enqueue(next, kNoReason, current_level());
    }
}

}  // namespace gshe::sat
