// Pointer-rich data structures encoded *inside* objects.
//
// These are the workloads the paper argues about: data structures whose
// in-memory form is full of references.  Encoded with Ptr64 they survive
// byte-level copies between hosts; encoded for RPC they must be serialized
// and re-swizzled on every hop.  Tests, examples, and the CLAIM-SER /
// ABL-PREFETCH benches all build on these.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "objspace/store.hpp"

namespace objrpc {

/// How a traversal obtains objects it does not yet hold.  Local walks pass
/// a store lookup; distributed walks pass a callback that fetches over the
/// simulated network (and can count misses).
using ObjectResolver = std::function<Result<ObjectPtr>(ObjectId)>;

/// Resolver over a local store.
ObjectResolver store_resolver(const ObjectStore& store);

// ---------------------------------------------------------------------------
// Linked list spanning objects.
//
// Node layout at offset N:
//   +0  Ptr64 next      (encoded; may cross into another object)
//   +8  u64   value
//   +16 u32   payload_len
//   +24 payload bytes
// ---------------------------------------------------------------------------
struct ListNodeRef {
  GlobalPtr at;  // where this node lives
};

class ObjLinkedList {
 public:
  /// Start a list whose head node will live in `head_object`.
  static Result<ObjLinkedList> create(ObjectPtr head_object);

  /// Append a node holding `value` and `payload` into `target` (which may
  /// be the same object as the tail or a different one — crossing objects
  /// exercises the FOT path).
  Status append(const ObjectPtr& tail_owner, ObjectPtr target,
                std::uint64_t value, ByteSpan payload = {});

  GlobalPtr head() const { return head_; }

  struct Visited {
    GlobalPtr node;
    std::uint64_t value;
    std::uint32_t payload_len;
  };

  /// Walk the list from its head, resolving objects through `resolve`.
  /// Stops at the null pointer; fails if a node is malformed or an object
  /// cannot be resolved.
  static Result<std::vector<Visited>> walk(GlobalPtr head,
                                           const ObjectResolver& resolve,
                                           std::size_t max_nodes = 1 << 20);

 private:
  GlobalPtr head_;
  GlobalPtr tail_;  // last node written, for O(1) append

  static constexpr std::uint64_t kNodeHeader = 24;
};

// ---------------------------------------------------------------------------
// Synthetic sparse model fragment (§2's workload).
//
// A fragment is a chain of shard objects.  Each shard holds a slice of a
// CSR-ish sparse matrix:
//   +0  u64  rows
//   +8  u64  nnz
//   +16 Ptr64 next_shard          (null in the last shard)
//   +24 u64  col_index[nnz]
//   +24+8*nnz f64 value[nnz]
// Row r owns entries [r*nnz/rows, (r+1)*nnz/rows).
// ---------------------------------------------------------------------------
struct SparseModelSpec {
  /// Column space for indices (the activation vector's length).
  static constexpr std::uint64_t kFeatureDim = 4096;

  std::uint64_t shards = 4;
  std::uint64_t rows_per_shard = 64;
  std::uint64_t nnz_per_shard = 1024;
  std::uint64_t seed = 1;
};

struct SparseModel {
  GlobalPtr first_shard;
  std::vector<ObjectId> shard_ids;
  std::uint64_t total_rows = 0;
  std::uint64_t total_nnz = 0;
  /// Total bytes across shard objects (what a byte-copy must move).
  std::uint64_t total_bytes = 0;
};

/// Build a model fragment in `store`, one object per shard, shards linked
/// through FOT-encoded pointers.
Result<SparseModel> build_sparse_model(ObjectStore& store, IdAllocator& ids,
                                       const SparseModelSpec& spec);

/// Dense activation vector; the "small argument" of an inference call.
using Activation = std::vector<double>;

/// Run y = M . x over every shard reachable from `first_shard`, resolving
/// shard objects via `resolve`.  Returns per-row outputs concatenated in
/// shard order.  This is the computation the Alice/Bob/Carol example
/// schedules.
Result<std::vector<double>> sparse_infer(GlobalPtr first_shard,
                                         const Activation& x,
                                         const ObjectResolver& resolve);

}  // namespace objrpc
