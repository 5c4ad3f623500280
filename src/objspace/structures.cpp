#include "objspace/structures.hpp"

#include <cstring>

namespace objrpc {

ObjectResolver store_resolver(const ObjectStore& store) {
  return [&store](ObjectId id) { return store.get(id); };
}

// --- linked list ------------------------------------------------------------

Result<ObjLinkedList> ObjLinkedList::create(ObjectPtr head_object) {
  if (!head_object) {
    return Error{Errc::invalid_argument, "null head object"};
  }
  ObjLinkedList list;
  list.head_ = GlobalPtr{};  // set on first append
  list.tail_ = GlobalPtr{};
  // Remember where the head will go by storing the owning object id with
  // offset 0 (a sentinel; offset 0 is never a valid node).
  list.head_.object = head_object->id();
  return list;
}

Status ObjLinkedList::append(const ObjectPtr& tail_owner, ObjectPtr target,
                             std::uint64_t value, ByteSpan payload) {
  if (!target) return Error{Errc::invalid_argument, "null target object"};
  auto off = target->alloc(kNodeHeader + payload.size(), 8);
  if (!off) return off.error();
  const GlobalPtr node{target->id(), *off};
  if (Status s = target->store_ptr(*off, Ptr64::null()); !s) return s;
  if (Status s = target->write_u64(*off + 8, value); !s) return s;
  std::uint8_t len_raw[8] = {};
  const auto len32 = static_cast<std::uint32_t>(payload.size());
  std::memcpy(len_raw, &len32, 4);
  if (Status s = target->write(*off + 16, ByteSpan{len_raw, 8}); !s) return s;
  if (!payload.empty()) {
    if (Status s = target->write(*off + kNodeHeader, payload); !s) return s;
  }

  if (tail_.offset == 0) {
    // First node: it is the head.
    head_ = node;
  } else {
    // Patch the previous tail's next pointer.
    if (!tail_owner || tail_owner->id() != tail_.object) {
      return Error{Errc::invalid_argument,
                   "tail_owner does not hold the current tail"};
    }
    auto ref = tail_owner->make_ref(node.object, node.offset, Perm::read);
    if (!ref) return ref.error();
    if (Status s = tail_owner->store_ptr(tail_.offset, *ref); !s) return s;
  }
  tail_ = node;
  return Status::ok();
}

Result<std::vector<ObjLinkedList::Visited>> ObjLinkedList::walk(
    GlobalPtr head, const ObjectResolver& resolve, std::size_t max_nodes) {
  std::vector<Visited> out;
  GlobalPtr cur = head;
  while (!cur.is_null() && cur.offset != 0) {
    if (out.size() >= max_nodes) {
      return Error{Errc::out_of_range, "list exceeds max_nodes (cycle?)"};
    }
    auto obj = resolve(cur.object);
    if (!obj) return obj.error();
    auto next = (*obj)->load_ptr(cur.offset);
    if (!next) return next.error();
    auto value = (*obj)->read_u64(cur.offset + 8);
    if (!value) return value.error();
    auto len = (*obj)->read_u64(cur.offset + 16);
    if (!len) return len.error();
    out.push_back(Visited{cur, *value,
                          static_cast<std::uint32_t>(*len & 0xFFFFFFFFu)});
    auto resolved = (*obj)->resolve(*next, Perm::read);
    if (!resolved) return resolved.error();
    cur = *resolved;
  }
  return out;
}

// --- sparse model -----------------------------------------------------------

namespace {
constexpr std::uint64_t kShardHeader = 24;  // rows, nnz, next ptr

std::uint64_t shard_bytes(const SparseModelSpec& spec) {
  return Object::kDataStart + kShardHeader + spec.nnz_per_shard * 16 +
         256 /* FOT + slack */;
}
}  // namespace

Result<SparseModel> build_sparse_model(ObjectStore& store, IdAllocator& ids,
                                       const SparseModelSpec& spec) {
  if (spec.shards == 0 || spec.rows_per_shard == 0) {
    return Error{Errc::invalid_argument, "empty model spec"};
  }
  Rng rng(spec.seed);
  SparseModel model;
  std::vector<ObjectPtr> shards;
  for (std::uint64_t s = 0; s < spec.shards; ++s) {
    auto obj = store.create(ids.allocate(), shard_bytes(spec));
    if (!obj) return obj.error();
    shards.push_back(*obj);
    model.shard_ids.push_back((*obj)->id());
    model.total_bytes += (*obj)->size();
  }
  for (std::uint64_t s = 0; s < spec.shards; ++s) {
    ObjectPtr shard = shards[s];
    auto base = shard->alloc(kShardHeader + spec.nnz_per_shard * 16, 8);
    if (!base) return base.error();
    if (Status st = shard->write_u64(*base, spec.rows_per_shard); !st)
      return st.error();
    if (Status st = shard->write_u64(*base + 8, spec.nnz_per_shard); !st)
      return st.error();
    Ptr64 next = Ptr64::null();
    if (s + 1 < spec.shards) {
      // All shards place their payload at the same offset, so the link
      // can target the next shard's base directly.
      auto ref = shard->make_ref(shards[s + 1]->id(), *base, Perm::read);
      if (!ref) return ref.error();
      next = *ref;
    }
    if (Status st = shard->store_ptr(*base + 16, next); !st) return st.error();
    // Column indices then values.
    for (std::uint64_t i = 0; i < spec.nnz_per_shard; ++i) {
      const std::uint64_t col = rng.next_below(SparseModelSpec::kFeatureDim);
      if (Status st = shard->write_u64(*base + kShardHeader + i * 8, col);
          !st)
        return st.error();
    }
    const std::uint64_t val_base =
        *base + kShardHeader + spec.nnz_per_shard * 8;
    for (std::uint64_t i = 0; i < spec.nnz_per_shard; ++i) {
      const double v = rng.next_double() * 2.0 - 1.0;
      std::uint64_t raw;
      std::memcpy(&raw, &v, 8);
      if (Status st = shard->write_u64(val_base + i * 8, raw); !st) return st.error();
    }
    if (s == 0) {
      model.first_shard = GlobalPtr{shard->id(), *base};
    }
  }
  model.total_rows = spec.shards * spec.rows_per_shard;
  model.total_nnz = spec.shards * spec.nnz_per_shard;
  return model;
}

Result<std::vector<double>> sparse_infer(GlobalPtr first_shard,
                                         const Activation& x,
                                         const ObjectResolver& resolve) {
  std::vector<double> out;
  GlobalPtr cur = first_shard;
  std::size_t guard = 0;
  while (!cur.is_null()) {
    if (++guard > 1 << 20) {
      return Error{Errc::out_of_range, "shard chain too long (cycle?)"};
    }
    auto obj = resolve(cur.object);
    if (!obj) return obj.error();
    auto rows = (*obj)->read_u64(cur.offset);
    if (!rows) return rows.error();
    auto nnz = (*obj)->read_u64(cur.offset + 8);
    if (!nnz) return nnz.error();
    auto next_ptr = (*obj)->load_ptr(cur.offset + 16);
    if (!next_ptr) return next_ptr.error();

    const std::uint64_t idx_base = cur.offset + kShardHeader;
    const std::uint64_t val_base = idx_base + *nnz * 8;
    for (std::uint64_t r = 0; r < *rows; ++r) {
      const std::uint64_t lo = r * *nnz / *rows;
      const std::uint64_t hi = (r + 1) * *nnz / *rows;
      double acc = 0.0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        auto col = (*obj)->read_u64(idx_base + i * 8);
        if (!col) return col.error();
        auto raw = (*obj)->read_u64(val_base + i * 8);
        if (!raw) return raw.error();
        double v;
        std::memcpy(&v, &*raw, 8);
        acc += v * (*col < x.size() ? x[*col] : 0.0);
      }
      out.push_back(acc);
    }
    auto resolved = (*obj)->resolve(*next_ptr, Perm::read);
    if (!resolved) return resolved.error();
    cur = *resolved;
  }
  return out;
}

}  // namespace objrpc
