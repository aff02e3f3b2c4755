// The x-kernel map tool: demultiplexing tables that bind external identifiers
// (header fields) to sessions, with cost accounting built in.
//
// Protocols keep an *active* map (fully-specified keys -> open sessions) and
// a *passive* map (partially-specified keys from open_enable -> the enabled
// high-level protocol). Every Resolve charges map_resolve and every Bind
// charges map_bind, so demux costs are accounted uniformly across protocols.
//
// Like the real map tool this is a hash table: open addressing with linear
// probing over a power-of-two bucket array, keyed through the XkHash/XkEq
// customization points (src/core/hash.h). Erased buckets become tombstones so
// probe chains stay intact; the table rehashes when full + tombstone buckets
// pass a 70% load factor. Demux on the datapath is therefore one probe over
// a contiguous array -- no node allocation, no pointer chasing.

#ifndef XK_SRC_CORE_MAP_H_
#define XK_SRC_CORE_MAP_H_

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/core/hash.h"
#include "src/core/kernel.h"
#include "src/core/protocol.h"

namespace xk {

template <typename Key, typename Value = SessionRef,
          typename Hash = XkHash<Key>, typename Eq = XkEq<Key>>
class DemuxMap {
 public:
  explicit DemuxMap(Kernel& kernel) : kernel_(kernel) {}

  // Looks up `key`, charging one map_resolve. Returns a default-constructed
  // Value (null SessionRef) on miss.
  Value Resolve(const Key& key) {
    kernel_.ChargeMapResolve();
    const size_t i = FindIndex(key);
    return i == kNpos ? Value{} : buckets_[i].value;
  }

  // Lookup without charging (configuration-time bookkeeping, not datapath).
  Value Peek(const Key& key) const {
    const size_t i = FindIndex(key);
    return i == kNpos ? Value{} : buckets_[i].value;
  }

  bool Contains(const Key& key) const { return FindIndex(key) != kNpos; }

  // Installs `key -> value`, charging one map_bind. Overwrites.
  void Bind(const Key& key, Value value) {
    kernel_.ChargeMapBind();
    InsertOrAssign(key, std::move(value), /*overwrite=*/true, nullptr);
  }

  // Single-probe insert-if-absent, replacing the Peek-then-Bind pattern.
  // Installs and charges one map_bind if `key` was unbound (returns true);
  // otherwise charges nothing -- exactly what the probe-then-install pair
  // cost -- and copies the incumbent into *existing when non-null.
  bool TryBind(const Key& key, Value value, Value* existing = nullptr) {
    if (InsertOrAssign(key, std::move(value), /*overwrite=*/false, existing)) {
      kernel_.ChargeMapBind();
      return true;
    }
    return false;
  }

  // Removes `key`, charging one map_unbind so demux teardown (dynamic layer
  // removal, per-call channel release) is accounted like installation.
  void Unbind(const Key& key) {
    kernel_.ChargeMapUnbind();
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return;
    }
    EraseBucket(i);
  }

  // Removes `key` and returns its value in one probe (default-constructed
  // Value on miss) -- the Peek-then-Unbind teardown pattern. Charges one
  // map_unbind, like Unbind.
  Value Take(const Key& key) {
    kernel_.ChargeMapUnbind();
    const size_t i = FindIndex(key);
    if (i == kNpos) {
      return Value{};
    }
    Value out = std::move(buckets_[i].value);
    EraseBucket(i);
    return out;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // --- introspection (tests and debugging, not part of the map-tool API) ---

  size_t capacity() const { return buckets_.size(); }
  size_t tombstones() const { return tombstones_; }

  // Buckets a lookup of `key` visits (>= 1 on a non-empty table). Counts the
  // terminating bucket too, so a first-probe hit is 1.
  size_t ProbeLength(const Key& key) const {
    if (buckets_.empty()) {
      return 0;
    }
    const size_t mask = buckets_.size() - 1;
    size_t n = 0;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      ++n;
      const Bucket& b = buckets_[i];
      if (b.state == kEmpty || (b.state == kFull && Eq{}(b.key, key))) {
        return n;
      }
    }
  }

  // Longest probe chain over every bound key: the worst-case demux cost the
  // table currently offers. Tombstone buildup shows up here first.
  size_t MaxProbeLength() const {
    size_t worst = 0;
    for (const Bucket& b : buckets_) {
      if (b.state == kFull) {
        worst = std::max(worst, ProbeLength(b.key));
      }
    }
    return worst;
  }

  void clear() {
    buckets_.clear();
    size_ = 0;
    tombstones_ = 0;
  }

 private:
  enum BucketState : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  struct Bucket {
    Key key{};
    Value value{};
    uint8_t state = kEmpty;
  };

  static constexpr size_t kNpos = SIZE_MAX;
  static constexpr size_t kMinCapacity = 16;

  void EraseBucket(size_t i) {
    buckets_[i].state = kTombstone;
    buckets_[i].value = Value{};
    --size_;
    ++tombstones_;
    // Amortized compaction: unbind-heavy phases (idle eviction draining a
    // million-session table) never insert, so the insert-side rehash in
    // MaybeGrow can't fire and probe chains would rot behind tombstones.
    // Rehash once a quarter of the table is tombstones; RehashForSize also
    // shrinks, so a drained table gives its memory back.
    if (tombstones_ * 4 >= buckets_.size() && buckets_.size() > kMinCapacity) {
      RehashForSize();
    }
  }

  size_t ProbeStart(const Key& key) const {
    return static_cast<size_t>(Hash{}(key)) & (buckets_.size() - 1);
  }

  // Index of the full bucket holding `key`, or kNpos.
  size_t FindIndex(const Key& key) const {
    if (buckets_.empty()) {
      return kNpos;
    }
    const size_t mask = buckets_.size() - 1;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      const Bucket& b = buckets_[i];
      if (b.state == kEmpty) {
        return kNpos;
      }
      if (b.state == kFull && Eq{}(b.key, key)) {
        return i;
      }
    }
  }

  // Inserts `key -> value` (reusing the first tombstone on the probe path).
  // If the key is already bound: overwrites when `overwrite`, else leaves the
  // incumbent and copies it to *existing when non-null. Returns true iff a
  // new binding was installed.
  bool InsertOrAssign(const Key& key, Value value, bool overwrite,
                      Value* existing) {
    MaybeGrow();
    const size_t mask = buckets_.size() - 1;
    size_t first_tombstone = kNpos;
    for (size_t i = ProbeStart(key);; i = (i + 1) & mask) {
      Bucket& b = buckets_[i];
      if (b.state == kFull) {
        if (Eq{}(b.key, key)) {
          if (overwrite) {
            b.value = std::move(value);
          } else if (existing != nullptr) {
            *existing = b.value;
          }
          return false;
        }
        continue;
      }
      if (b.state == kTombstone) {
        if (first_tombstone == kNpos) {
          first_tombstone = i;
        }
        continue;
      }
      // Empty: the key is absent. Land on the earliest reusable bucket.
      Bucket& dst = first_tombstone == kNpos ? b : buckets_[first_tombstone];
      if (dst.state == kTombstone) {
        --tombstones_;
      }
      dst.key = key;
      dst.value = std::move(value);
      dst.state = kFull;
      ++size_;
      return true;
    }
  }

  void MaybeGrow() {
    if (buckets_.empty()) {
      buckets_.resize(kMinCapacity);
      return;
    }
    // Count tombstones toward load so long-lived maps with heavy bind/unbind
    // churn (per-call channel bindings in SELECT) rehash instead of degrading.
    if ((size_ + tombstones_ + 1) * 10 <= buckets_.size() * 7) {
      return;
    }
    RehashForSize();
  }

  // Rebuilds the table at the smallest power-of-two capacity keeping the live
  // load (with one insertion of headroom) at or under 70%, dropping every
  // tombstone. Both grows and shrinks.
  void RehashForSize() {
    size_t new_cap = kMinCapacity;
    while ((size_ + 1) * 10 > new_cap * 7) {
      new_cap *= 2;
    }
    std::vector<Bucket> old = std::move(buckets_);
    buckets_.assign(new_cap, Bucket{});
    size_ = 0;
    tombstones_ = 0;
    for (Bucket& b : old) {
      if (b.state == kFull) {
        InsertOrAssign(b.key, std::move(b.value), /*overwrite=*/false, nullptr);
      }
    }
  }

  Kernel& kernel_;
  std::vector<Bucket> buckets_;  // size is 0 or a power of two
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

}  // namespace xk

#endif  // XK_SRC_CORE_MAP_H_
