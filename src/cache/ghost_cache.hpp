// Ghost cache: an LRU of *metadata only* for recently evicted entries.
//
// iCache (paper §III-C, Figure 7) keeps a ghost index cache and a ghost
// read cache. A hit in a ghost cache means "this access would have been a
// hit had the corresponding actual cache been larger" — the signal the
// cost-benefit estimator uses to repartition memory (same idea as ARC's
// ghost lists).
//
// Only iCache reads ghost state, so caches start with a zero-capacity
// ghost, which is inert: it keeps no table, and remember() and
// probe_and_consume() return before hashing or probing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/flat_lru_map.hpp"

namespace pod {

template <typename K, typename Hash = std::hash<K>>
class GhostCache {
 public:
  explicit GhostCache(std::size_t capacity) : entries_(capacity) {}

  /// Pre-sizes the underlying table for the configured capacity. An inert
  /// (zero-capacity) ghost keeps no table at all.
  void reserve(std::size_t expected) {
    if (expected != 0) entries_.reserve(expected);
  }

  /// Records an eviction from the actual cache.
  void remember(const K& key) {
    if (entries_.capacity() == 0) return;
    entries_.put(key, seq_++, [](const K&, std::uint64_t&&) {});
  }

  /// Records a request's worth of evictions: equivalent to remember() on
  /// each key in order (same sequence numbers, same ghost LRU state), with
  /// one LRU splice and one eviction sweep via put_batch.
  void remember_batch(const K* keys, std::size_t n) {
    if (n == 0 || entries_.capacity() == 0) return;
    seq_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) seq_scratch_[i] = seq_ + i;
    seq_ += n;
    entries_.put_batch(keys, seq_scratch_.data(), n,
                       [](const K&, std::uint64_t&&) {});
  }

  /// Probes for `key`; on hit the entry is consumed (the actual cache is
  /// about to re-admit it) and the hit counter advances. A hit also counts
  /// as *near* when at most `near_threshold` newer evictions happened since
  /// the entry was remembered — i.e. the access would have been an actual
  /// hit had the cache been near_threshold entries larger (exact for LRU).
  bool probe_and_consume(const K& key) {
    if (entries_.size() == 0) return false;
    return probe_and_consume_tagged(entries_.hash_tag(key), key);
  }

  /// Prefetches `key`'s home bucket ahead of a probe_and_consume.
  void prefetch(const K& key) const { entries_.prefetch(key); }

  // --- tagged API (fused lookup passes; see FlatLruMap) ---
  //
  // The ghost list shares its Hash functor with the actual cache it
  // shadows, so a fused caller reuses ONE precomputed tag per key across
  // both structures. Tags are pure functions of the key: they stay valid
  // across the table shifts probe_and_consume's erasures cause.

  using Tag = typename FlatLruMap<K, std::uint64_t, Hash>::Tag;

  Tag hash_tag(const K& key) const { return entries_.hash_tag(key); }

  void prefetch_tag(Tag tag) const { entries_.prefetch_tag(tag); }

  /// Prefetches the slot entry the tag's home bucket names (second
  /// pipeline stage, after prefetch_tag's line has landed). Erasures
  /// between this hint and the probe can shift slots; a stale prefetch is
  /// only a wasted line, never a correctness issue.
  void prefetch_slot_of(Tag tag) const { entries_.prefetch_slot_of(tag); }

  /// probe_and_consume() with a precomputed tag.
  bool probe_and_consume_tagged(Tag tag, const K& key) {
    // Consumption can drain the list entirely between refills; skip the
    // table walk (one ctrl line per probe) when there is nothing to find.
    if (entries_.size() == 0) return false;
    const std::optional<std::uint64_t> stored = entries_.take_tagged(tag, key);
    if (!stored.has_value()) return false;
    const std::uint64_t age = seq_ - *stored;
    if (age <= near_threshold_) ++near_hits_;
    ++hits_;
    return true;
  }

  /// Batched probe_and_consume: equivalent to calling it for every key in
  /// order. Phase 1 prefetches every home bucket; phase 2 consumes
  /// sequentially — a consume erases (backward-shift) and may displace
  /// later keys' exact slots, so only the homes are precomputed, never the
  /// probe results. Returns the number of hits.
  std::size_t probe_and_consume_batch(const K* keys, std::size_t n) {
    if (entries_.size() == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) entries_.prefetch(keys[i]);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (probe_and_consume(keys[i])) ++hits;
    return hits;
  }

  /// Sets the "would a one-step-larger cache have kept it" horizon.
  void set_near_threshold(std::uint64_t entries) { near_threshold_ = entries; }
  std::uint64_t near_threshold() const { return near_threshold_; }

  bool contains(const K& key) const { return entries_.contains(key); }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }
  void set_capacity(std::size_t c) { entries_.set_capacity(c); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t near_hits() const { return near_hits_; }
  /// Hits since the last epoch reset (cost-benefit window).
  std::uint64_t epoch_hits() const { return hits_ - epoch_base_; }
  void begin_epoch() { epoch_base_ = hits_; }

  /// Visits up to `limit` remembered keys from most- toward least-recently
  /// evicted, with each key's eviction sequence number.
  template <typename Fn>
  void for_each_mru(std::size_t limit, Fn&& fn) const {
    entries_.for_each_mru(limit, std::forward<Fn>(fn));
  }

  /// Drops a specific key (e.g. after swap-in) without counting a hit.
  void forget(const K& key) { entries_.erase(key); }

  /// forget() on each key in order (same erasures, same ghost state). Each
  /// key's home bucket is prefetched a fixed distance ahead of its erase,
  /// so a swap-in's worth of forgets overlaps its cache misses instead of
  /// paying them one after another. Erasures shift the table, so the hints
  /// can go stale; a stale hint costs one line, never correctness.
  void forget_batch(const K* keys, std::size_t n) {
    if (entries_.size() == 0) return;
    constexpr std::size_t kAhead = 8;
    for (std::size_t i = 0; i < std::min(kAhead, n); ++i)
      entries_.prefetch(keys[i]);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) entries_.prefetch(keys[i + kAhead]);
      entries_.erase(keys[i]);
    }
  }

  void clear() { entries_.clear(); }

 private:
  // Value = eviction sequence number (for hit-age estimation).
  FlatLruMap<K, std::uint64_t, Hash> entries_;
  std::uint64_t seq_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t near_hits_ = 0;
  std::uint64_t near_threshold_ = ~std::uint64_t{0};
  std::uint64_t epoch_base_ = 0;
  // remember_batch value staging (steady state allocates nothing).
  std::vector<std::uint64_t> seq_scratch_;
};

}  // namespace pod
