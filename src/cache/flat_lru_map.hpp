// Open-addressing LRU map over a flat probe table.
//
// A node-based LRU (std::list + std::unordered_map) performs two node
// allocations per insert and chases three pointers per lookup; profiled
// replays spend more time in such maps than in the disks. FlatLruMap keeps
// entries in a stable slot pool threaded onto an intrusive MRU..LRU list
// and locates them through a linear-probe index table of {slot, tag} pairs:
//
//   table_  : power-of-two vector of {32-bit slot index, 32-bit hash tag}
//             (slot == kEmpty when free)
//   slots_  : entry pool; erased slots are recycled via free_, and the
//             intrusive list is threaded by index, so index-table rehashes
//             never move entries. Value pointers follow vector rules:
//             valid until an insert grows the pool (use them immediately,
//             as all callers here do).
//
// The tag is the scrambled hash: probes compare tags before touching the
// slot pool at all, so a miss or a displaced-cluster scan costs sequential
// index-table loads only — no dependent cache miss into slots_ per probed
// bucket. The home bucket is recoverable from the tag (home = tag & mask),
// which keeps backward-shift deletion entirely inside the index table.
// A parallel control-byte array (ctrl_: 0 = empty, else the tag's top 7
// bits) is group-scanned 16 lanes at a time (common/ctrl_group.hpp), so a
// probe reads one cache line of control bytes before it touches even the
// {slot, tag} buckets; candidate order and stop condition are identical to
// the scalar linear probe.
//
// Tags are pure functions of the key (no table state), so the tagged API
// below (hash_tag / get_tagged / take_tagged / put_tagged / get_chained)
// lets fused callers hash each key once and reuse the tag across this map
// and any sibling map sharing the same Hash — precomputed tags stay valid
// across rehashes and erasures.
//
// Erasures use backward-shift deletion on the index table (only the 8-byte
// table entries move; slot entries stay put), so steady LRU churn leaves no
// tombstones and never forces compaction rebuilds. Keys are scrambled
// with a Fibonacci multiplier so identity hashes (std::hash<uint64_t>,
// FingerprintHash) do not cluster under linear probing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/ctrl_group.hpp"
#include "common/prefetch.hpp"

namespace pod {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatLruMap {
 public:
  explicit FlatLruMap(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the index table for `expected` live entries. Fixed-capacity
  /// caches that always fill (index/read/ghost caches) reserve their
  /// capacity up front so steady growth pays no incremental rehashes.
  void reserve(std::size_t expected) {
    std::size_t required = 16;
    while (required < 2 * (expected + 1)) required <<= 1;
    if (table_.size() < required) rebuild_table(required);
  }

  /// Looks up `key`; promotes to MRU on hit.
  V* get(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return nullptr;
    promote(s);
    return &slots_[s].value;
  }

  /// Looks up without promoting.
  const V* peek(const K& key) const {
    const std::uint32_t s = find_slot(key);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  bool contains(const K& key) const { return find_slot(key) != kNil; }

  /// Issues a software prefetch for `key`'s home bucket in the index
  /// table. Purely a hint: useful before a probe whose exact slot cannot
  /// be precomputed (e.g. ghost probes, whose erasures shift the table).
  void prefetch(const K& key) const {
    if (table_.empty()) return;
    const std::size_t h = tag_of(key) & mask_;
    prefetch_read(&ctrl_[h]);
    prefetch_read(&table_[h]);
  }

  // --- tagged API (fused lookup passes) ---
  //
  // A fused caller hashes each key ONCE via hash_tag(), prefetches the
  // home groups of every structure it will probe, then resolves probes
  // with the *_tagged calls — no second hashing pass, no cold home
  // buckets. Tags depend only on the key and the Hash functor, so two
  // maps with the same Hash (e.g. an entry map and its ghost list) share
  // one tag per key.

  using Tag = std::uint32_t;

  /// The scrambled-hash tag for `key` (pure function of the key).
  Tag hash_tag(const K& key) const { return tag_of(key); }

  /// Prefetches the home control-byte group and index bucket for a tag.
  void prefetch_tag(Tag tag) const {
    if (table_.empty()) return;
    const std::size_t h = tag & mask_;
    prefetch_read(&ctrl_[h]);
    prefetch_read(&table_[h]);
  }

  /// Prefetches the slot entry the tag's home bucket names, if the tag
  /// matches there — the second pipeline stage after prefetch_tag().
  void prefetch_slot_of(Tag tag) const {
    if (table_.empty()) return;
    const Bucket b = table_[tag & mask_];
    if (b.slot != kEmpty && b.tag == tag) prefetch_read(&slots_[b.slot]);
  }

  /// get() with a precomputed tag (promotes to MRU on hit).
  V* get_tagged(Tag tag, const K& key) {
    if (table_.empty()) return nullptr;
    const std::uint32_t s = find_slot_tagged(tag, key);
    if (s == kNil) return nullptr;
    promote(s);
    return &slots_[s].value;
  }

  /// take() with a precomputed tag.
  std::optional<V> take_tagged(Tag tag, const K& key) {
    if (table_.empty()) return std::nullopt;
    const std::uint32_t s = find_slot_tagged(tag, key);
    if (s == kNil) return std::nullopt;
    std::optional<V> out{std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Detached recency chain handle for a fused pass's grouped promotions;
  /// see get_chained()/splice(). Default-constructed = empty.
  struct Chain {
    std::uint32_t front = 0xFFFFFFFFu;  // kNil
    std::uint32_t back = 0xFFFFFFFFu;
  };

  /// get() with a precomputed tag, collecting the promotion onto `chain`
  /// instead of touching the LRU head — the fused-pass equivalent of
  /// get_batch's phase 3. The caller publishes all promotions with one
  /// splice(chain) after its last probe; until then the chained entries
  /// are off the main list, so eviction-free probe sequences stay
  /// identical to the scalar loop's.
  V* get_chained(Tag tag, const K& key, Chain& chain) {
    if (table_.empty()) return nullptr;
    const std::uint32_t s = find_slot_tagged(tag, key);
    if (s == kNil) return nullptr;
    chain_promote(s, chain.front, chain.back);
    return &slots_[s].value;
  }

  /// Publishes a fused pass's recency chain at MRU (one head update) and
  /// resets the handle. A no-op for an empty chain.
  void splice(Chain& chain) {
    splice_chain_front(chain.front, chain.back);
    chain = Chain{};
  }

  /// Two-phase batched lookup: equivalent to `out[i] = get(keys[i])` for
  /// every i in order (same promotions, same LRU end state). Keys are
  /// processed in fixed windows: phase 1 hashes the window and prefetches
  /// every home bucket of the index table, phase 2 prefetches the slot
  /// entries those buckets name, phase 3 resolves the probes and collects
  /// hits onto a detached recency chain. One splice publishes the chain at
  /// MRU after the last window — a request's worth of promotions costs one
  /// head update instead of one per hit. Lookups never mutate the index
  /// table (only the intrusive LRU list), so the precomputed homes stay
  /// valid across the window even with duplicate keys. Returned pointers
  /// follow the same vector rules as get().
  void get_batch(const K* keys, std::size_t n, V** out) {
    if (table_.empty()) {
      std::fill(out, out + n, nullptr);
      return;
    }
    std::uint32_t chain_front = kNil;
    std::uint32_t chain_back = kNil;
    std::uint32_t tags[kBatchWindow];
    for (std::size_t done = 0; done < n; done += kBatchWindow) {
      const std::size_t m = std::min(kBatchWindow, n - done);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t tag = tag_of(keys[done + j]);
        tags[j] = tag;
        prefetch_read(&ctrl_[tag & mask_]);
        prefetch_read(&table_[tag & mask_]);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const Bucket b = table_[tags[j] & mask_];
        if (b.slot != kEmpty && b.tag == tags[j]) prefetch_read(&slots_[b.slot]);
      }
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t s =
            find_slot_tagged(tags[j], keys[done + j]);
        if (s == kNil) {
          out[done + j] = nullptr;
        } else {
          chain_promote(s, chain_front, chain_back);
          out[done + j] = &slots_[s].value;
        }
      }
    }
    splice_chain_front(chain_front, chain_back);
  }

  /// Promotes every present key to MRU — equivalent to calling get() on
  /// each key in order and discarding the results, but with the grouped
  /// single-splice recency update of get_batch. Absent keys are ignored.
  void promote_batch(const K* keys, std::size_t n) {
    if (table_.empty() || n == 0) return;
    std::uint32_t chain_front = kNil;
    std::uint32_t chain_back = kNil;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t s = find_slot(keys[i]);
      if (s != kNil) chain_promote(s, chain_front, chain_back);
    }
    splice_chain_front(chain_front, chain_back);
  }

  /// Inserts or overwrites; promotes to MRU. Evictions (if over capacity)
  /// are reported through `on_evict`. A capacity of 0 means nothing is
  /// retained: the insert is dropped (and reported as evicted). One probe
  /// pass resolves hit-overwrite and miss-insert alike: the scan that
  /// rules the key out ends exactly at the bucket a new entry belongs in.
  template <typename EvictFn>
  void put(const K& key, V value, EvictFn&& on_evict) {
    put_tagged(tag_of(key), key, std::move(value),
               std::forward<EvictFn>(on_evict));
  }

  void put(const K& key, V value) {
    put(key, std::move(value), [](const K&, V&&) {});
  }

  /// put() with a precomputed tag.
  template <typename EvictFn>
  void put_tagged(Tag tag, const K& key, V value, EvictFn&& on_evict) {
    if (capacity_ == 0) {
      on_evict(key, std::move(value));
      return;
    }
    ensure_table_space();
    const CtrlProbeResult r = probe(tag, key);
    if (r.found) {
      const std::uint32_t hit = table_[r.pos].slot;
      slots_[hit].value = std::move(value);
      promote(hit);
      return;
    }
    const std::uint32_t s = alloc_slot(key, std::move(value));
    set_bucket(r.pos, Bucket{s, tag});
    slots_[s].tpos = static_cast<std::uint32_t>(r.pos);
    push_front(s);
    ++size_;
    while (size_ > capacity_) evict_lru(on_evict);
  }

  /// Request-scoped bulk insert: equivalent to `put(keys[i], values[i],
  /// on_evict)` for every i in order — same final map contents, same LRU
  /// order, same eviction sequence — but amortized: tags are hashed and
  /// home buckets prefetched up front, the index table is pre-reserved so
  /// no rehash lands mid-batch, inserted/overwritten entries collect onto
  /// a detached recency chain published with ONE splice, and evictions are
  /// detached from the table at the exact per-put points the scalar loop
  /// would evict them (so probe outcomes match bit-for-bit) while their
  /// `on_evict` callbacks are staged and delivered together after the
  /// batch. Requires copy-constructible V (values are read from an array);
  /// `on_evict` must not reenter this map.
  template <typename EvictFn>
  void put_batch(const K* keys, const V* values, std::size_t n,
                 EvictFn&& on_evict) {
    if (n == 0) return;
    if (capacity_ == 0) {
      for (std::size_t i = 0; i < n; ++i) on_evict(keys[i], V(values[i]));
      return;
    }
    reserve(size_ + n);  // no rebuild mid-batch: chained slots are off-list
    std::uint32_t chain_front = kNil;
    std::uint32_t chain_back = kNil;
    tag_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t tag = tag_of(keys[i]);
      tag_scratch_[i] = tag;
      prefetch_read(&ctrl_[tag & mask_]);
      prefetch_read(&table_[tag & mask_]);
    }
    if (size_ + n > capacity_ && tail_ != kNil) prefetch_read(&slots_[tail_]);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t tag = tag_scratch_[i];
      const CtrlProbeResult r = probe(tag, keys[i]);
      if (r.found) {  // overwrite + promote; size unchanged, no evict
        const std::uint32_t hit = table_[r.pos].slot;
        slots_[hit].value = values[i];
        chain_promote(hit, chain_front, chain_back);
        continue;
      }
      const std::uint32_t s = alloc_slot(keys[i], V(values[i]));
      set_bucket(r.pos, Bucket{s, tag});
      slots_[s].tpos = static_cast<std::uint32_t>(r.pos);
      chain_push_front(s, chain_front, chain_back);
      ++size_;
      while (size_ > capacity_) {
        // Victim selection mirrors the scalar loop: the global LRU is the
        // old list's tail until the batch drains it, then the oldest entry
        // of this batch (the chain back).
        std::uint32_t victim;
        if (tail_ != kNil) {
          victim = tail_;
          unlink(victim);
        } else {
          victim = chain_back;
          chain_unlink(victim, chain_front, chain_back);
        }
        // Move key/value out NOW: the freed slot may be recycled by a
        // later insert of this same batch.
        evicted_scratch_.emplace_back(slots_[victim].key,
                                      std::move(slots_[victim].value));
        detach_table(victim);
        if (tail_ != kNil) prefetch_read(&slots_[tail_]);
      }
    }
    splice_chain_front(chain_front, chain_back);
    for (auto& [k, v] : evicted_scratch_) on_evict(k, std::move(v));
    evicted_scratch_.clear();
  }

  /// Removes a specific key; returns true if it was present.
  bool erase(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return false;
    remove_slot(s);
    return true;
  }

  /// Removes `key` and returns its value (single probe — the contains()
  /// + get() + erase() replacement).
  std::optional<V> take(const K& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNil) return std::nullopt;
    std::optional<V> out{std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Pops the LRU entry (requires non-empty).
  std::pair<K, V> pop_lru() {
    POD_CHECK(size_ > 0);
    const std::uint32_t s = tail_;
    std::pair<K, V> out{slots_[s].key, std::move(slots_[s].value)};
    remove_slot(s);
    return out;
  }

  /// Shrinks/extends the capacity; evicts LRU entries as needed.
  template <typename EvictFn>
  void set_capacity(std::size_t capacity, EvictFn&& on_evict) {
    capacity_ = capacity;
    while (size_ > capacity_) evict_lru(on_evict);
  }

  void set_capacity(std::size_t capacity) {
    set_capacity(capacity, [](const K&, V&&) {});
  }

  /// Iterates entries from MRU to LRU.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next)
      fn(slots_[s].key, slots_[s].value);
  }

  /// Visits up to `limit` entries from LRU toward MRU without promoting —
  /// the likely victims of an upcoming put_batch. Callers use this to warm
  /// downstream structures (e.g. ghost-cache home buckets) before the
  /// eviction sweep runs.
  template <typename Fn>
  void for_each_lru(std::size_t limit, Fn&& fn) const {
    std::uint32_t s = tail_;
    for (std::size_t i = 0; i < limit && s != kNil; ++i) {
      fn(slots_[s].key, slots_[s].value);
      s = slots_[s].prev;
    }
  }

  void clear() {
    table_.clear();
    ctrl_.clear();
    slots_.clear();
    free_.clear();
    mask_ = 0;
    size_ = 0;
    head_ = tail_ = kNil;
  }

  /// Key of the LRU entry (requires non-empty).
  const K& lru_key() const {
    POD_CHECK(size_ > 0);
    return slots_[tail_].key;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  /// Batch window for get_batch (see FlatHashMap::kBatchWindow).
  static constexpr std::size_t kBatchWindow = 16;

  struct Slot {
    K key;
    V value;
    std::uint32_t prev;
    std::uint32_t next;
    std::uint32_t tpos;  // current position in table_ (updated on rehash)
    // Nonzero while the slot sits on a batch's detached recency chain;
    // splice_chain_front() and chain_unlink() clear it, so outside a batch
    // every slot reads 0. One byte (vs a 64-bit epoch) keeps the slot
    // compact — it usually hides in the struct's tail padding.
    std::uint8_t in_chain = 0;
  };

  /// Index-table bucket: which pool slot lives here plus its hash tag.
  struct Bucket {
    std::uint32_t slot;
    std::uint32_t tag;
  };

  /// Scrambled-hash tag; the home bucket is `tag & mask_`. (Fibonacci
  /// scramble spreads identity hashes across the table; the table stays
  /// below 2^32 buckets, so the tag's low bits always cover the mask.)
  std::uint32_t tag_of(const K& key) const {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ull) >>
        32);
  }

  /// Control byte for a tag: its top 7 bits, remapped off 0 (= empty).
  static std::uint8_t ctrl_of(std::uint32_t tag) {
    const std::uint8_t c = static_cast<std::uint8_t>(tag >> 25);
    return c == 0 ? std::uint8_t{0x7F} : c;
  }

  /// Writes an index bucket and its control byte, maintaining the
  /// wraparound mirror of the first kCtrlPad control bytes.
  void set_bucket(std::size_t i, Bucket b) {
    table_[i] = b;
    const std::uint8_t c = b.slot == kEmpty ? std::uint8_t{0} : ctrl_of(b.tag);
    ctrl_[i] = c;
    if (i < kCtrlPad) ctrl_[mask_ + 1 + i] = c;
  }

  /// Group-probes for `key`: found -> its bucket, else the first empty
  /// bucket (exactly where a scalar insert probe would land).
  CtrlProbeResult probe(std::uint32_t tag, const K& key) const {
    return ctrl_probe(ctrl_.data(), mask_, tag & mask_, ctrl_of(tag), wide_,
                      [&](std::size_t j) {
                        const Bucket b = table_[j];
                        return b.tag == tag && slots_[b.slot].key == key;
                      });
  }

  std::uint32_t find_slot(const K& key) const {
    if (table_.empty()) return kNil;
    return find_slot_tagged(tag_of(key), key);
  }

  std::uint32_t find_slot_tagged(std::uint32_t tag, const K& key) const {
    const CtrlProbeResult r = probe(tag, key);
    return r.found ? table_[r.pos].slot : kNil;
  }

  void unlink(std::uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) slots_[slot.prev].next = slot.next;
    else head_ = slot.next;
    if (slot.next != kNil) slots_[slot.next].prev = slot.prev;
    else tail_ = slot.prev;
  }

  void push_front(std::uint32_t s) {
    Slot& slot = slots_[s];
    slot.prev = kNil;
    slot.next = head_;
    if (head_ != kNil) slots_[head_].prev = s;
    head_ = s;
    if (tail_ == kNil) tail_ = s;
  }

  void promote(std::uint32_t s) {
    if (head_ == s) return;
    unlink(s);
    push_front(s);
  }

  // --- detached recency chain (batch operations) ---
  //
  // Batched ops collect touched slots onto a private doubly-linked chain
  // threaded through the same prev/next fields (front = most recent).
  // splice_chain_front() then publishes the whole chain at MRU with one
  // head update. The chain is ordered exactly as sequential promotes would
  // have left those entries, so the spliced list is bit-identical to the
  // scalar loop's result.

  void chain_push_front(std::uint32_t s, std::uint32_t& chain_front,
                        std::uint32_t& chain_back) {
    Slot& slot = slots_[s];
    slot.in_chain = 1;
    slot.prev = kNil;
    slot.next = chain_front;
    if (chain_front != kNil) slots_[chain_front].prev = s;
    chain_front = s;
    if (chain_back == kNil) chain_back = s;
  }

  void chain_unlink(std::uint32_t s, std::uint32_t& chain_front,
                    std::uint32_t& chain_back) {
    Slot& slot = slots_[s];
    slot.in_chain = 0;
    if (slot.prev != kNil) slots_[slot.prev].next = slot.next;
    else chain_front = slot.next;
    if (slot.next != kNil) slots_[slot.next].prev = slot.prev;
    else chain_back = slot.prev;
  }

  /// Moves slot `s` (live, possibly already chained) to the chain front —
  /// the batched equivalent of promote(s).
  void chain_promote(std::uint32_t s, std::uint32_t& chain_front,
                     std::uint32_t& chain_back) {
    if (chain_front == s) return;
    if (slots_[s].in_chain) {
      chain_unlink(s, chain_front, chain_back);
    } else {
      unlink(s);
    }
    chain_push_front(s, chain_front, chain_back);
  }

  /// Publishes the chain (front = newest) ahead of the current head. Also
  /// clears every member's in_chain flag — an O(batch) walk over lines the
  /// batch just touched, restoring the all-zeros invariant between batches.
  void splice_chain_front(std::uint32_t chain_front,
                          std::uint32_t chain_back) {
    if (chain_front == kNil) return;
    for (std::uint32_t s = chain_front;; s = slots_[s].next) {
      slots_[s].in_chain = 0;
      if (s == chain_back) break;
    }
    slots_[chain_back].next = head_;
    if (head_ != kNil) slots_[head_].prev = chain_back;
    else tail_ = chain_back;
    slots_[chain_front].prev = kNil;
    head_ = chain_front;
  }

  /// Places slot `s` (whose key is known absent) into the index table.
  void place(std::uint32_t s) {
    const std::uint32_t tag = tag_of(slots_[s].key);
    const CtrlProbeResult r =
        ctrl_probe(ctrl_.data(), mask_, tag & mask_, ctrl_of(tag), wide_,
                   [](std::size_t) { return false; });
    set_bucket(r.pos, Bucket{s, tag});
    slots_[s].tpos = static_cast<std::uint32_t>(r.pos);
  }

  void rebuild_table(std::size_t new_size) {
    table_.assign(new_size, Bucket{kEmpty, 0});
    ctrl_.assign(new_size + kCtrlPad, 0);
    mask_ = new_size - 1;
    wide_ = wide_ctrl_groups();
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) place(s);
  }

  void ensure_table_space() {
    // Keep live entries under half the table.
    std::size_t required = 16;
    while (required < 2 * (size_ + 1)) required <<= 1;
    if (table_.size() < required) rebuild_table(required);
  }

  /// Pops a recycled slot (or grows the pool) and fills in key/value; the
  /// caller links it into the index table and LRU list.
  std::uint32_t alloc_slot(const K& key, V&& value) {
    if (!free_.empty()) {
      const std::uint32_t s = free_.back();
      free_.pop_back();
      slots_[s].key = key;
      slots_[s].value = std::move(value);
      return s;
    }
    const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
    POD_CHECK(s < kNil);
    slots_.push_back(Slot{key, std::move(value), kNil, kNil, kNil});
    return s;
  }

  void remove_slot(std::uint32_t s) {
    unlink(s);
    detach_table(s);
  }

  /// Removes slot `s` from the index table (backward-shift) and recycles
  /// it. The caller has already unlinked it from whichever recency list —
  /// main or batch chain — held it.
  void detach_table(std::uint32_t s) {
    std::size_t i = slots_[s].tpos;
    free_.push_back(s);
    --size_;
    // Backward-shift deletion: slide displaced successors toward their
    // home slots so the probe chain stays tombstone-free. Homes come from
    // the stored tags, so the scan never leaves the index table.
    bool shifting = true;
    while (shifting) {
      set_bucket(i, Bucket{kEmpty, 0});
      shifting = false;
      std::size_t j = i;
      for (;;) {
        j = (j + 1) & mask_;
        const Bucket b = table_[j];
        if (b.slot == kEmpty) break;
        const std::size_t h = b.tag & mask_;
        if (((i - h) & mask_) < ((j - h) & mask_)) {
          set_bucket(i, b);
          slots_[b.slot].tpos = static_cast<std::uint32_t>(i);
          i = j;
          shifting = true;
          break;
        }
      }
    }
  }

  template <typename EvictFn>
  void evict_lru(EvictFn&& on_evict) {
    const std::uint32_t s = tail_;
    K key = slots_[s].key;
    V value = std::move(slots_[s].value);
    remove_slot(s);
    on_evict(key, std::move(value));
  }

  std::size_t capacity_;
  std::vector<Bucket> table_;
  /// One control byte per bucket (0 = empty, else ctrl_of(tag)), plus
  /// kCtrlPad wraparound mirror bytes; group-scanned by probe().
  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  /// AVX2 continuation groups enabled (cached from the SIMD dispatch at
  /// rebuild time so probes never touch dispatch state).
  bool wide_ = false;
  // put_batch staging (kept across calls so steady state allocates nothing).
  std::vector<std::uint32_t> tag_scratch_;
  std::vector<std::pair<K, V>> evicted_scratch_;
};

}  // namespace pod
