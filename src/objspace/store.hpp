// Per-host object store.
//
// Each simulated host owns a store: the set of objects for which it is
// currently the authoritative home.  The store is the OS-level piece the
// paper co-designs with the network — discovery protocols advertise its
// contents, and the placement engine consults it when scheduling a
// rendezvous of code and data.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/flat_table.hpp"
#include "common/result.hpp"
#include "objspace/object.hpp"

namespace objrpc {

/// Owning map from ObjectId to Object, with an optional byte-capacity
/// limit (models host memory constraints used by the placement engine).
class ObjectStore {
 public:
  /// `capacity_bytes == 0` means unlimited.
  explicit ObjectStore(std::uint64_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  /// Create a fresh object of `size` bytes under `id`.
  Result<ObjectPtr> create(ObjectId id, std::uint64_t size);

  /// Insert an object that arrived from elsewhere (takes ownership).
  /// HOT_PATH: runs on frame arrival (reliable-channel reassembly hands
  /// migrated objects straight to the store).  MAY_ALLOC: first-touch
  /// table growth and the object buffer itself.
  HOT_PATH MAY_ALLOC Status insert(Object obj);

  /// Remove an object (e.g. after it migrated away).  Returns the evicted
  /// object so the caller can forward its bytes.
  Result<Object> remove(ObjectId id);

  bool contains(ObjectId id) const { return objects_.contains(id); }
  /// Error on a miss, naming the object; for callers that report it.
  Result<ObjectPtr> get(ObjectId id) const;
  /// Non-allocating probe (nullptr on a miss), for sites where a miss is
  /// the normal case: a client asking whether it happens to hold the
  /// object before going to the network.
  const ObjectPtr* find(ObjectId id) const { return objects_.find(id); }

  std::size_t count() const { return objects_.size(); }
  std::uint64_t bytes_used() const { return bytes_used_; }
  std::uint64_t capacity() const { return capacity_; }
  /// Remaining byte budget; UINT64_MAX when unlimited.
  std::uint64_t bytes_available() const;

  /// Enumerate all resident IDs (order unspecified but deterministic for
  /// a deterministic insertion history).
  std::vector<ObjectId> ids() const;

  void for_each(const std::function<void(const ObjectPtr&)>& fn) const;

 private:
  Status check_capacity(std::uint64_t incoming) const;

  /// Open addressing (common/flat_table.hpp): the store sits on the
  /// frame-arrival path (fetch fills, migration pushes), where the old
  /// node-based map cost one allocation per insert and a pointer chase
  /// per lookup.  Iteration always goes through insertion_order_, so
  /// hash layout never leaks into reports or digests.
  FlatHashMap<ObjectId, ObjectPtr> objects_;
  std::vector<ObjectId> insertion_order_;
  std::uint64_t capacity_;
  std::uint64_t bytes_used_ = 0;
};

}  // namespace objrpc
