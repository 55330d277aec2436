/**
 * @file
 * Bounded heavy-hitter tracking: the Space-Saving algorithm (Metwally,
 * Agrawal, El Abbadi, ICDT'05) over integer keys, carrying an
 * arbitrary per-entry payload.
 *
 * The sketch holds at most K entries. A resident key's update is O(1);
 * a non-resident key replaces the minimum-weight entry, inheriting its
 * weight as the classic overestimate. The invariants tests pin:
 *
 *  - weight(k) >= true count of k            (never undercounts)
 *  - weight(k) - error(k) <= true count of k (bounded overcount)
 *  - any key whose true count exceeds the minimum resident weight is
 *    resident (heavy hitters cannot be missed)
 *
 * The payload is the *exact* bookkeeping accumulated while the key is
 * resident; on replacement the displaced entry (key + payload) is
 * handed back to the caller so it can be folded into an aggregate
 * row — this is what lets DmaAccountant keep byte conservation exact
 * while the identity of the tail churns.
 *
 * Eviction choice is deterministic: the lowest-index entry among the
 * minimum weights. Two identical update sequences produce identical
 * sketches (pinned by tests/obs/test_sketch.cpp).
 *
 * Layout: the weights sit in their own dense array, so the eviction
 * scan reads 8 bytes per slot whatever the payload, and payloads live
 * in a deque, so a resident payload never moves — its address is
 * stable until its key is displaced.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

namespace octo::obs {

template <typename Payload>
class SpaceSaving
{
  public:
    /** A displaced entry, handed back by update(). */
    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t weight = 0; ///< Overestimated count for ranking.
        std::uint64_t error = 0;  ///< Weight inherited at admission.
        Payload payload{};        ///< Exact while resident.
    };

    /** A resident key's ranking state (entries()). */
    struct Resident
    {
        std::uint64_t key = 0;
        std::uint64_t weight = 0;
        std::uint64_t error = 0;
    };

    /** What update() did with the key. */
    enum class Outcome
    {
        Updated,  ///< Key was resident; weight bumped.
        Admitted, ///< Free slot used; no displacement.
        Replaced, ///< Minimum entry displaced (see @p evicted).
    };

    explicit SpaceSaving(std::size_t k) : k_(k == 0 ? 1 : k) {}

    std::size_t capacity() const { return k_; }
    std::size_t size() const { return weights_.size(); }
    std::uint64_t evictions() const { return evictions_; }

    /** Sum of all update weights ever applied (conservation anchor). */
    std::uint64_t totalWeight() const { return totalWeight_; }

    /** Smallest resident weight; 0 when empty. The Space-Saving bound:
     *  no absent key's true count can exceed this. */
    std::uint64_t
    minWeight() const
    {
        if (weights_.empty())
            return 0;
        return weights_[minSlot()];
    }

    /** Payload of a resident @p key, or null. */
    const Payload*
    find(std::uint64_t key) const
    {
        auto it = index_.find(key);
        return it == index_.end() ? nullptr : &payloads_[it->second];
    }

    /**
     * Count @p w occurrences of @p key and return its payload. When the
     * sketch is full and @p key is absent, the minimum-weight entry is
     * displaced: @p evicted receives its key, weight, error and payload
     * (moved out) before the slot is recycled with a fresh payload, and
     * the newcomer inherits the displaced weight as its error term.
     */
    Payload&
    update(std::uint64_t key, std::uint64_t w, Outcome& out,
           Entry& evicted)
    {
        totalWeight_ += w;
        if (auto it = index_.find(key); it != index_.end()) {
            weights_[it->second] += w;
            out = Outcome::Updated;
            return payloads_[it->second];
        }
        if (weights_.size() < k_) {
            index_.emplace(key,
                           static_cast<std::uint32_t>(weights_.size()));
            weights_.push_back(w);
            slots_.push_back(Slot{key, 0});
            payloads_.emplace_back();
            out = Outcome::Admitted;
            return payloads_.back();
        }
        const std::size_t m = minSlot();
        Slot& s = slots_[m];
        evicted.key = s.key;
        evicted.weight = weights_[m];
        evicted.error = s.error;
        evicted.payload = std::move(payloads_[m]);
        payloads_[m] = Payload{};
        // Re-key the displaced index node in place: no allocation.
        auto node = index_.extract(s.key);
        node.key() = key;
        index_.insert(std::move(node));
        ++evictions_;
        s.key = key;
        s.error = weights_[m];
        weights_[m] += w;
        out = Outcome::Replaced;
        return payloads_[m];
    }

    /** Resident entries in slot order (admission order until churn). */
    std::vector<Resident>
    entries() const
    {
        std::vector<Resident> r;
        r.reserve(size());
        for (std::size_t i = 0; i < size(); ++i)
            r.push_back(Resident{slots_[i].key, weights_[i],
                                 slots_[i].error});
        return r;
    }

    /** Payload of slot @p i < size(), in entries() order. */
    const Payload& payload(std::size_t i) const { return payloads_[i]; }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t error;
    };

    std::size_t
    minSlot() const
    {
        std::size_t m = 0;
        std::uint64_t best = weights_[0];
        for (std::size_t i = 1; i < weights_.size(); ++i) {
            if (weights_[i] < best) {
                best = weights_[i];
                m = i;
            }
        }
        return m;
    }

    std::size_t k_;
    std::vector<std::uint64_t> weights_; ///< Per slot, scanned on evict.
    std::vector<Slot> slots_;            ///< Per slot, parallel.
    std::deque<Payload> payloads_;       ///< Per slot, address-stable.
    std::unordered_map<std::uint64_t, std::uint32_t> index_;
    std::uint64_t evictions_ = 0;
    std::uint64_t totalWeight_ = 0;
};

} // namespace octo::obs
