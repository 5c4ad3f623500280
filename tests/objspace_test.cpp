// Tests for the object space: Ptr64 encoding, object layout, FOT,
// byte-level movement, stores, reachability, and the in-object data
// structures.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "objspace/object.hpp"
#include "objspace/reachability.hpp"
#include "objspace/store.hpp"
#include "objspace/structures.hpp"

namespace objrpc {
namespace {

ObjectId make_id(std::uint64_t n) { return ObjectId{0xABCD, n}; }

// --- Ptr64 ------------------------------------------------------------------

TEST(Ptr64, NullIsInternalZero) {
  const Ptr64 p = Ptr64::null();
  EXPECT_TRUE(p.is_null());
  EXPECT_TRUE(p.is_internal());
  EXPECT_EQ(p.offset(), 0u);
  EXPECT_EQ(p.raw(), 0u);
}

TEST(Ptr64, InternalEncoding) {
  const Ptr64 p = Ptr64::internal(0x1234);
  EXPECT_TRUE(p.is_internal());
  EXPECT_FALSE(p.is_null());
  EXPECT_EQ(p.offset(), 0x1234u);
  EXPECT_EQ(p.fot_index(), Ptr64::kSelfIndex);
}

TEST(Ptr64, ForeignEncoding) {
  const Ptr64 p = Ptr64::foreign(7, 0xBEEF);
  EXPECT_FALSE(p.is_internal());
  EXPECT_EQ(p.fot_index(), 7u);
  EXPECT_EQ(p.offset(), 0xBEEFu);
}

TEST(Ptr64, MaxValuesFit) {
  const Ptr64 p = Ptr64::foreign(Ptr64::kMaxFotIndex, Ptr64::kMaxOffset);
  EXPECT_EQ(p.fot_index(), Ptr64::kMaxFotIndex);
  EXPECT_EQ(p.offset(), Ptr64::kMaxOffset);
}

TEST(Ptr64, RawRoundTrip) {
  const Ptr64 p = Ptr64::foreign(99, 123456789);
  EXPECT_EQ(Ptr64::from_raw(p.raw()), p);
}

// Property: encode/decode roundtrip over random index/offset pairs.
class Ptr64Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ptr64Property, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 10000; ++i) {
    const auto idx =
        static_cast<std::uint32_t>(rng.next_below(Ptr64::kMaxFotIndex + 1));
    const std::uint64_t off = rng.next_below(Ptr64::kMaxOffset + 1);
    const Ptr64 p = idx == 0 ? Ptr64::internal(off) : Ptr64::foreign(idx, off);
    EXPECT_EQ(p.fot_index(), idx);
    EXPECT_EQ(p.offset(), off);
    EXPECT_EQ(Ptr64::from_raw(p.raw()), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ptr64Property, ::testing::Values(3, 7, 11));

// --- Object basics ----------------------------------------------------------

TEST(Object, CreateRejectsBadArgs) {
  EXPECT_FALSE(Object::create(ObjectId{}, 4096));
  EXPECT_FALSE(Object::create(make_id(1), 8));  // too small
  EXPECT_FALSE(Object::create(make_id(1), Ptr64::kMaxOffset + 2));
}

TEST(Object, ReadWriteRoundTrip) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  const Bytes data{1, 2, 3, 4};
  ASSERT_TRUE(obj->write(Object::kDataStart, data));
  auto got = obj->read(Object::kDataStart, 4);
  ASSERT_TRUE(got);
  EXPECT_EQ(Bytes(got->begin(), got->end()), data);
}

TEST(Object, HeaderRegionIsProtected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  const Bytes data{1};
  EXPECT_EQ(obj->write(0, data).error().code, Errc::out_of_range);
  EXPECT_EQ(obj->write(Object::kDataStart - 1, data).error().code,
            Errc::out_of_range);
  EXPECT_FALSE(obj->read(0, 8));
}

TEST(Object, OutOfBoundsRejected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  EXPECT_FALSE(obj->read(4090, 100));
  EXPECT_FALSE(obj->read(1u << 20, 1));
  // Overflow-ish offsets must not wrap.
  EXPECT_FALSE(obj->read(~0ULL - 2, 8));
}

TEST(Object, VersionBumpsOnWrite) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  const auto v0 = obj->version();
  ASSERT_TRUE(obj->write_u64(Object::kDataStart, 9));
  EXPECT_GT(obj->version(), v0);
}

TEST(Object, AllocAdvancesAndAligns) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto a = obj->alloc(10, 8);
  ASSERT_TRUE(a);
  EXPECT_EQ(*a % 8, 0u);
  auto b = obj->alloc(10, 64);
  ASSERT_TRUE(b);
  EXPECT_EQ(*b % 64, 0u);
  EXPECT_GT(*b, *a);
}

TEST(Object, AllocRejectsBadAlignment) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj->alloc(8, 3).error().code, Errc::invalid_argument);
  EXPECT_EQ(obj->alloc(8, 0).error().code, Errc::invalid_argument);
}

TEST(Object, AllocExhaustion) {
  auto obj = Object::create(make_id(1), 256);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->alloc(100));
  EXPECT_EQ(obj->alloc(10000).error().code, Errc::capacity_exceeded);
}

// --- FOT --------------------------------------------------------------------

TEST(Fot, AddAndLookup) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto idx = obj->add_fot_entry(make_id(2), Perm::read);
  ASSERT_TRUE(idx);
  EXPECT_EQ(*idx, 1u);
  auto entry = obj->fot_entry(*idx);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->target, make_id(2));
  EXPECT_EQ(entry->perms, Perm::read);
}

TEST(Fot, DedupsIdenticalEntries) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto i1 = obj->add_fot_entry(make_id(2), Perm::read);
  auto i2 = obj->add_fot_entry(make_id(2), Perm::read);
  ASSERT_TRUE(i1);
  ASSERT_TRUE(i2);
  EXPECT_EQ(*i1, *i2);
  // Different perms get a distinct entry.
  auto i3 = obj->add_fot_entry(make_id(2), Perm::rw);
  ASSERT_TRUE(i3);
  EXPECT_NE(*i1, *i3);
  EXPECT_EQ(obj->fot_count(), 2u);
}

TEST(Fot, IndexZeroAndOutOfRangeRejected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  EXPECT_FALSE(obj->fot_entry(0));
  EXPECT_FALSE(obj->fot_entry(1));
}

TEST(Fot, NullTargetRejected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj->add_fot_entry(ObjectId{}, Perm::read).error().code,
            Errc::invalid_argument);
}

TEST(Fot, CollisionWithDataDetected) {
  auto obj = Object::create(make_id(1), Object::kDataStart + 24 + 40);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->alloc(40));  // leaves exactly one 24-byte FOT slot
  ASSERT_TRUE(obj->add_fot_entry(make_id(2), Perm::read));
  EXPECT_EQ(obj->add_fot_entry(make_id(3), Perm::read).error().code,
            Errc::capacity_exceeded);
}

// --- resolve ----------------------------------------------------------------

TEST(Resolve, InternalPointer) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto gp = obj->resolve(Ptr64::internal(100));
  ASSERT_TRUE(gp);
  EXPECT_EQ(gp->object, make_id(1));
  EXPECT_EQ(gp->offset, 100u);
}

TEST(Resolve, ForeignPointerThroughFot) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto ref = obj->make_ref(make_id(9), 64, Perm::read);
  ASSERT_TRUE(ref);
  auto gp = obj->resolve(*ref);
  ASSERT_TRUE(gp);
  EXPECT_EQ(gp->object, make_id(9));
  EXPECT_EQ(gp->offset, 64u);
}

TEST(Resolve, NullPointerResolvesToNull) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto gp = obj->resolve(Ptr64::null());
  ASSERT_TRUE(gp);
  EXPECT_TRUE(gp->is_null());
}

TEST(Resolve, PermissionEnforced) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto ref = obj->make_ref(make_id(9), 64, Perm::read);
  ASSERT_TRUE(ref);
  EXPECT_EQ(obj->resolve(*ref, Perm::write).error().code,
            Errc::permission_denied);
  EXPECT_TRUE(obj->resolve(*ref, Perm::read));
}

TEST(Resolve, DanglingFotIndexRejected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  EXPECT_EQ(obj->resolve(Ptr64::foreign(5, 0)).error().code, Errc::not_found);
}

TEST(Resolve, SelfReferenceBecomesInternal) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto ref = obj->make_ref(make_id(1), 80);
  ASSERT_TRUE(ref);
  EXPECT_TRUE(ref->is_internal());
  EXPECT_EQ(obj->fot_count(), 0u);  // no FOT entry needed
}

// --- byte-level movement (the serialization-free copy) -----------------------

TEST(Movement, ByteCopyPreservesEverything) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  auto off = obj->alloc(16);
  ASSERT_TRUE(off);
  ASSERT_TRUE(obj->write_u64(*off, 0x1122334455667788ULL));
  auto ref = obj->make_ref(make_id(7), 128, Perm::rw);
  ASSERT_TRUE(ref);
  ASSERT_TRUE(obj->store_ptr(*off + 8, *ref));

  // "Send" the raw bytes and re-adopt them — the entire deserialization.
  Bytes wire = obj->raw_bytes();
  auto copy = Object::from_bytes(make_id(1), std::move(wire));
  ASSERT_TRUE(copy);
  EXPECT_EQ(copy->version(), obj->version());
  EXPECT_EQ(copy->fot_count(), obj->fot_count());
  auto v = copy->read_u64(*off);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 0x1122334455667788ULL);
  auto p = copy->load_ptr(*off + 8);
  ASSERT_TRUE(p);
  auto gp = copy->resolve(*p, Perm::rw);
  ASSERT_TRUE(gp);
  EXPECT_EQ(gp->object, make_id(7));
  EXPECT_EQ(gp->offset, 128u);
}

TEST(Movement, CorruptHeaderRejected) {
  auto obj = Object::create(make_id(1), 4096);
  ASSERT_TRUE(obj);
  Bytes wire = obj->raw_bytes();
  wire[0] ^= 0xFF;  // clobber magic
  EXPECT_EQ(Object::from_bytes(make_id(1), std::move(wire)).error().code,
            Errc::malformed);
}

TEST(Movement, TruncatedImageRejected) {
  Bytes tiny(16, 0);
  EXPECT_FALSE(Object::from_bytes(make_id(1), std::move(tiny)));
}

TEST(Movement, InconsistentFotCountRejected) {
  auto obj = Object::create(make_id(1), 256);
  ASSERT_TRUE(obj);
  Bytes wire = obj->raw_bytes();
  // Claim an absurd FOT count.
  const std::uint32_t bogus = 10000;
  std::memcpy(wire.data() + 4, &bogus, 4);
  EXPECT_EQ(Object::from_bytes(make_id(1), std::move(wire)).error().code,
            Errc::malformed);
}

TEST(Movement, CloneAsGetsNewIdentity) {
  auto obj = Object::create(make_id(1), 1024);
  ASSERT_TRUE(obj);
  ASSERT_TRUE(obj->write_u64(Object::kDataStart, 77));
  Object copy = obj->clone_as(make_id(2));
  EXPECT_EQ(copy.id(), make_id(2));
  auto v = copy.read_u64(Object::kDataStart);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 77u);
}

// Property: random object builds survive byte-copy byte-for-byte.
class MovementProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MovementProperty, RandomObjectsSurviveCopy) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t size = 512 + rng.next_below(8192);
    auto obj = Object::create(make_id(100 + trial), size);
    ASSERT_TRUE(obj);
    // Random allocations, writes, and FOT entries.
    for (int i = 0; i < 30; ++i) {
      switch (rng.next_below(3)) {
        case 0: {
          auto off = obj->alloc(8 + rng.next_below(64));
          if (off) {
            (void)obj->write_u64(*off, rng.next_u64());
          }
          break;
        }
        case 1:
          (void)obj->add_fot_entry(ObjectId{U128{1, 1 + rng.next_below(5)}},
                                   Perm::read);
          break;
        case 2:
          (void)obj->add_fot_entry(ObjectId{rng.next_u128()}, Perm::rw);
          break;
      }
    }
    auto copy = Object::from_bytes(obj->id(), obj->raw_bytes());
    ASSERT_TRUE(copy);
    EXPECT_EQ(copy->raw_bytes(), obj->raw_bytes());
    EXPECT_EQ(copy->fot_count(), obj->fot_count());
    EXPECT_EQ(copy->bytes_allocated(), obj->bytes_allocated());
    for (std::uint32_t i = 1; i <= obj->fot_count(); ++i) {
      auto a = obj->fot_entry(i);
      auto b = copy->fot_entry(i);
      ASSERT_TRUE(a);
      ASSERT_TRUE(b);
      EXPECT_EQ(a->target, b->target);
      EXPECT_EQ(a->perms, b->perms);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovementProperty,
                         ::testing::Values(101, 202, 303, 404));

// --- ObjectStore ------------------------------------------------------------

TEST(Store, CreateGetRemove) {
  ObjectStore store;
  auto obj = store.create(make_id(1), 1024);
  ASSERT_TRUE(obj);
  EXPECT_TRUE(store.contains(make_id(1)));
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.bytes_used(), 1024u);
  auto got = store.get(make_id(1));
  ASSERT_TRUE(got);
  EXPECT_EQ((*got)->id(), make_id(1));
  auto removed = store.remove(make_id(1));
  ASSERT_TRUE(removed);
  EXPECT_FALSE(store.contains(make_id(1)));
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(Store, DuplicateCreateRejected) {
  ObjectStore store;
  ASSERT_TRUE(store.create(make_id(1), 1024));
  EXPECT_EQ(store.create(make_id(1), 1024).error().code, Errc::conflict);
}

TEST(Store, CapacityEnforced) {
  ObjectStore store(2048);
  ASSERT_TRUE(store.create(make_id(1), 1024));
  ASSERT_TRUE(store.create(make_id(2), 1024));
  EXPECT_EQ(store.create(make_id(3), 1024).error().code,
            Errc::capacity_exceeded);
  EXPECT_EQ(store.bytes_available(), 0u);
}

TEST(Store, InsertMovedObject) {
  ObjectStore a, b;
  auto obj = a.create(make_id(1), 1024);
  ASSERT_TRUE(obj);
  ASSERT_TRUE((*obj)->write_u64(Object::kDataStart, 42));
  auto removed = a.remove(make_id(1));
  ASSERT_TRUE(removed);
  ASSERT_TRUE(b.insert(std::move(*removed)));
  auto got = b.get(make_id(1));
  ASSERT_TRUE(got);
  auto v = (*got)->read_u64(Object::kDataStart);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 42u);
}

TEST(Store, MissingObjectNotFound) {
  ObjectStore store;
  EXPECT_EQ(store.get(make_id(9)).error().code, Errc::not_found);
  EXPECT_EQ(store.remove(make_id(9)).error().code, Errc::not_found);
}

TEST(Store, IdsInInsertionOrder) {
  ObjectStore store;
  ASSERT_TRUE(store.create(make_id(3), 512));
  ASSERT_TRUE(store.create(make_id(1), 512));
  ASSERT_TRUE(store.create(make_id(2), 512));
  const auto ids = store.ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], make_id(3));
  EXPECT_EQ(ids[1], make_id(1));
  EXPECT_EQ(ids[2], make_id(2));
}

// --- reachability -----------------------------------------------------------

TEST(Reachability, ChainDepths) {
  ObjectStore store;
  // a -> b -> c
  auto a = store.create(make_id(1), 1024);
  auto b = store.create(make_id(2), 1024);
  auto c = store.create(make_id(3), 1024);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(c);
  ASSERT_TRUE((*a)->add_fot_entry(make_id(2), Perm::read));
  ASSERT_TRUE((*b)->add_fot_entry(make_id(3), Perm::read));

  auto g = ReachabilityGraph::build(store, {make_id(1)});
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.depth(make_id(1)), 0u);
  EXPECT_EQ(g.depth(make_id(2)), 1u);
  EXPECT_EQ(g.depth(make_id(3)), 2u);
  EXPECT_EQ(g.edges().size(), 2u);
}

TEST(Reachability, CycleTerminates) {
  ObjectStore store;
  auto a = store.create(make_id(1), 1024);
  auto b = store.create(make_id(2), 1024);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE((*a)->add_fot_entry(make_id(2), Perm::read));
  ASSERT_TRUE((*b)->add_fot_entry(make_id(1), Perm::read));
  auto g = ReachabilityGraph::build(store, {make_id(1)});
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.depth(make_id(2)), 1u);
}

TEST(Reachability, NonResidentFrontierIncluded) {
  ObjectStore store;
  auto a = store.create(make_id(1), 1024);
  ASSERT_TRUE(a);
  ASSERT_TRUE((*a)->add_fot_entry(make_id(99), Perm::read));
  auto g = ReachabilityGraph::build(store, {make_id(1)});
  EXPECT_TRUE(g.reachable(make_id(99)));
  EXPECT_EQ(g.depth(make_id(99)), 1u);
}

TEST(Reachability, MaxDepthHonored) {
  ObjectStore store;
  auto a = store.create(make_id(1), 1024);
  auto b = store.create(make_id(2), 1024);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE((*a)->add_fot_entry(make_id(2), Perm::read));
  ASSERT_TRUE((*b)->add_fot_entry(make_id(3), Perm::read));
  auto g = ReachabilityGraph::build(store, {make_id(1)}, 1);
  EXPECT_TRUE(g.reachable(make_id(2)));
  EXPECT_FALSE(g.reachable(make_id(3)));
}

TEST(Reachability, UnreachableDepthIsMax) {
  ObjectStore store;
  auto g = ReachabilityGraph::build(store, {});
  EXPECT_EQ(g.depth(make_id(1)), std::numeric_limits<std::uint32_t>::max());
}

// --- linked list ------------------------------------------------------------

TEST(LinkedList, SingleObjectWalk) {
  ObjectStore store;
  auto obj = store.create(make_id(1), 1 << 16);
  ASSERT_TRUE(obj);
  auto list = ObjLinkedList::create(*obj);
  ASSERT_TRUE(list);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(list->append(*obj, *obj, i * 10));
  }
  auto visited = ObjLinkedList::walk(list->head(), store_resolver(store));
  ASSERT_TRUE(visited);
  ASSERT_EQ(visited->size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*visited)[i].value, i * 10);
  }
}

TEST(LinkedList, CrossObjectWalk) {
  ObjectStore store;
  auto a = store.create(make_id(1), 1 << 14);
  auto b = store.create(make_id(2), 1 << 14);
  auto c = store.create(make_id(3), 1 << 14);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  ASSERT_TRUE(c);
  auto list = ObjLinkedList::create(*a);
  ASSERT_TRUE(list);
  ASSERT_TRUE(list->append(*a, *a, 1));
  ASSERT_TRUE(list->append(*a, *b, 2));  // crosses a -> b
  ASSERT_TRUE(list->append(*b, *c, 3));  // crosses b -> c
  ASSERT_TRUE(list->append(*c, *a, 4));  // back into a

  auto visited = ObjLinkedList::walk(list->head(), store_resolver(store));
  ASSERT_TRUE(visited);
  ASSERT_EQ(visited->size(), 4u);
  EXPECT_EQ((*visited)[1].node.object, make_id(2));
  EXPECT_EQ((*visited)[2].node.object, make_id(3));
  EXPECT_EQ((*visited)[3].node.object, make_id(1));
  std::vector<std::uint64_t> vals;
  for (const auto& v : *visited) vals.push_back(v.value);
  EXPECT_EQ(vals, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(LinkedList, PayloadLengthRecorded) {
  ObjectStore store;
  auto obj = store.create(make_id(1), 1 << 14);
  ASSERT_TRUE(obj);
  auto list = ObjLinkedList::create(*obj);
  ASSERT_TRUE(list);
  const Bytes payload(33, 0xEE);
  ASSERT_TRUE(list->append(*obj, *obj, 5, payload));
  auto visited = ObjLinkedList::walk(list->head(), store_resolver(store));
  ASSERT_TRUE(visited);
  ASSERT_EQ(visited->size(), 1u);
  EXPECT_EQ((*visited)[0].payload_len, 33u);
}

TEST(LinkedList, WalkFailsOnMissingObject) {
  ObjectStore store;
  auto a = store.create(make_id(1), 1 << 14);
  auto b = store.create(make_id(2), 1 << 14);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  auto list = ObjLinkedList::create(*a);
  ASSERT_TRUE(list);
  ASSERT_TRUE(list->append(*a, *a, 1));
  ASSERT_TRUE(list->append(*a, *b, 2));
  ASSERT_TRUE(store.remove(make_id(2)));
  auto visited = ObjLinkedList::walk(list->head(), store_resolver(store));
  EXPECT_FALSE(visited);
  EXPECT_EQ(visited.error().code, Errc::not_found);
}

// --- sparse model -----------------------------------------------------------

TEST(SparseModel, BuildShape) {
  ObjectStore store;
  IdAllocator ids{Rng(5)};
  SparseModelSpec spec;
  spec.shards = 3;
  spec.rows_per_shard = 4;
  spec.nnz_per_shard = 32;
  auto model = build_sparse_model(store, ids, spec);
  ASSERT_TRUE(model);
  EXPECT_EQ(model->shard_ids.size(), 3u);
  EXPECT_EQ(model->total_rows, 12u);
  EXPECT_EQ(model->total_nnz, 96u);
  EXPECT_EQ(store.count(), 3u);
}

TEST(SparseModel, InferenceVisitsAllShards) {
  ObjectStore store;
  IdAllocator ids{Rng(5)};
  SparseModelSpec spec;
  spec.shards = 4;
  spec.rows_per_shard = 8;
  spec.nnz_per_shard = 64;
  auto model = build_sparse_model(store, ids, spec);
  ASSERT_TRUE(model);
  Activation x(SparseModelSpec::kFeatureDim, 1.0);
  auto y = sparse_infer(model->first_shard, x, store_resolver(store));
  ASSERT_TRUE(y);
  EXPECT_EQ(y->size(), model->total_rows);
}

TEST(SparseModel, InferenceDeterministic) {
  ObjectStore s1, s2;
  IdAllocator ids1{Rng(5)}, ids2{Rng(5)};
  SparseModelSpec spec;
  auto m1 = build_sparse_model(s1, ids1, spec);
  auto m2 = build_sparse_model(s2, ids2, spec);
  ASSERT_TRUE(m1);
  ASSERT_TRUE(m2);
  Activation x(SparseModelSpec::kFeatureDim);
  Rng rng(77);
  for (auto& v : x) v = rng.next_double();
  auto y1 = sparse_infer(m1->first_shard, x, store_resolver(s1));
  auto y2 = sparse_infer(m2->first_shard, x, store_resolver(s2));
  ASSERT_TRUE(y1);
  ASSERT_TRUE(y2);
  EXPECT_EQ(*y1, *y2);
}

TEST(SparseModel, ZeroActivationGivesZeroOutput) {
  ObjectStore store;
  IdAllocator ids{Rng(5)};
  SparseModelSpec spec;
  auto model = build_sparse_model(store, ids, spec);
  ASSERT_TRUE(model);
  Activation x(SparseModelSpec::kFeatureDim, 0.0);
  auto y = sparse_infer(model->first_shard, x, store_resolver(store));
  ASSERT_TRUE(y);
  for (double v : *y) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SparseModel, ShardsSurviveByteMovement) {
  ObjectStore src, dst;
  IdAllocator ids{Rng(5)};
  SparseModelSpec spec;
  spec.shards = 2;
  auto model = build_sparse_model(src, ids, spec);
  ASSERT_TRUE(model);
  Activation x(SparseModelSpec::kFeatureDim, 0.5);
  auto y_before = sparse_infer(model->first_shard, x, store_resolver(src));
  ASSERT_TRUE(y_before);
  // Byte-copy every shard to another store.
  for (const auto& id : model->shard_ids) {
    auto obj = src.get(id);
    ASSERT_TRUE(obj);
    auto copy = Object::from_bytes(id, (*obj)->raw_bytes());
    ASSERT_TRUE(copy);
    ASSERT_TRUE(dst.insert(std::move(*copy)));
  }
  auto y_after = sparse_infer(model->first_shard, x, store_resolver(dst));
  ASSERT_TRUE(y_after);
  EXPECT_EQ(*y_before, *y_after);
}

}  // namespace
}  // namespace objrpc
