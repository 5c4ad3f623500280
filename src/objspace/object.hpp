// Objects: flat regions of memory addressable in the global space (§3.1).
//
// An object is "a pool of memory where smaller data structures can be
// placed".  Its wire representation is exactly its in-memory
// representation:
//
//   +--------+------------------------------+------------------+
//   | header |  data (allocated upward) ... | ... FOT (downward)|
//   +--------+------------------------------+------------------+
//   0        kDataStart                                      size
//
// The foreign-object table (FOT) lives at a known location — the tail of
// the object, growing downward — and maps small indices to full 128-bit
// object IDs plus access rights.  Encoded pointers (Ptr64) index this
// table.  Because everything, FOT included, lives inside the one buffer,
// moving an object between hosts is a byte-level copy that preserves all
// references; this is the mechanism behind the paper's claim that global
// references remove 100% of deserialization/loading overhead.
#pragma once

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "objspace/id.hpp"
#include "objspace/ptr64.hpp"

namespace objrpc {

/// Access rights carried by FOT entries and checked on dereference.
enum class Perm : std::uint32_t {
  none = 0,
  read = 1,
  write = 2,
  exec = 4,
  rw = read | write,
  rx = read | exec,
  all = read | write | exec,
};

constexpr Perm operator|(Perm a, Perm b) {
  return static_cast<Perm>(static_cast<std::uint32_t>(a) |
                           static_cast<std::uint32_t>(b));
}
constexpr bool has_perm(Perm held, Perm needed) {
  return (static_cast<std::uint32_t>(held) &
          static_cast<std::uint32_t>(needed)) ==
         static_cast<std::uint32_t>(needed);
}

/// One foreign-object-table entry: a full object ID plus the rights this
/// object holds on the target.  24 bytes on the wire.
struct FotEntry {
  ObjectId target;
  Perm perms = Perm::none;

  static constexpr std::size_t kWireSize = 24;
};

/// A fully-resolved reference: object ID + byte offset.  This is the form
/// that crosses layers (OS, network, placement engine).
struct GlobalPtr {
  ObjectId object;
  std::uint64_t offset = 0;

  constexpr bool is_null() const { return object.is_null(); }
  friend constexpr auto operator<=>(const GlobalPtr&, const GlobalPtr&) =
      default;
  std::string to_string() const;
};

/// An object: one contiguous buffer holding header, data, and FOT.
class Object {
 public:
  /// First offset usable for data.  Offsets below this are the header;
  /// offset 0 in particular is reserved so the all-zero Ptr64 can serve
  /// as null.
  static constexpr std::uint64_t kDataStart = 64;
  static constexpr std::uint32_t kMagic = 0x7E12'2E10;  // "TwIZzlEr-ish"

  /// Create an empty object of `size` bytes (>= kDataStart + one FOT slot).
  static Result<Object> create(ObjectId id, std::uint64_t size);

  /// Adopt raw bytes that arrived over the network (byte-level copy).
  /// Validates the header; this is the *entire* "deserialization" step.
  static Result<Object> from_bytes(ObjectId id, Bytes bytes);

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;
  Object(Object&&) = default;
  Object& operator=(Object&&) = default;

  ObjectId id() const { return id_; }
  std::uint64_t size() const { return buf_.size(); }
  /// Version counter, bumped on every mutation; used by caches to detect
  /// staleness.
  std::uint64_t version() const { return version_; }

  // --- raw data access (bounds- and header-checked) ---
  Result<ByteSpan> read(std::uint64_t offset, std::uint64_t len) const;
  Status write(std::uint64_t offset, ByteSpan data);

  Result<std::uint64_t> read_u64(std::uint64_t offset) const;
  Status write_u64(std::uint64_t offset, std::uint64_t value);

  // --- encoded pointers ---
  Status store_ptr(std::uint64_t offset, Ptr64 p) {
    return write_u64(offset, p.raw());
  }
  Result<Ptr64> load_ptr(std::uint64_t offset) const;

  /// Resolve an encoded pointer loaded from this object into a global
  /// reference.  Fails with `permission_denied` if the FOT entry lacks
  /// `needed`.
  Result<GlobalPtr> resolve(Ptr64 p, Perm needed = Perm::read) const;

  // --- foreign-object table ---
  std::uint32_t fot_count() const { return fot_count_; }
  Result<FotEntry> fot_entry(std::uint32_t index) const;
  /// Add (or find an existing identical) FOT entry; returns its index
  /// (>= 1).  Fails with `capacity_exceeded` when the FOT would collide
  /// with allocated data.
  Result<std::uint32_t> add_fot_entry(ObjectId target, Perm perms);
  /// Encode a reference to (target, target_offset), adding a FOT entry as
  /// needed.  `target == id()` yields an internal pointer.
  Result<Ptr64> make_ref(ObjectId target, std::uint64_t target_offset,
                         Perm perms = Perm::read);

  // --- intra-object allocation ---
  /// Bump-allocate `n` bytes with the given power-of-two alignment;
  /// returns the offset of the new region (zero-filled).
  Result<std::uint64_t> alloc(std::uint64_t n, std::uint64_t align = 8);
  std::uint64_t bytes_allocated() const { return alloc_top_ - kDataStart; }

  // --- movement ---
  /// The byte-exact wire image.  Copying these bytes to another host and
  /// calling from_bytes() there reproduces the object, pointers intact.
  const Bytes& raw_bytes() const { return buf_; }
  /// Deep copy under a (possibly) new identity, e.g. for replication.
  Object clone_as(ObjectId new_id) const;

 private:
  Object(ObjectId id, Bytes buf) : id_(id), buf_(std::move(buf)) {}

  std::uint64_t fot_region_start() const {
    return buf_.size() -
           static_cast<std::uint64_t>(fot_count_) * FotEntry::kWireSize;
  }
  Status check_range(std::uint64_t offset, std::uint64_t len) const;
  void write_header();
  Status read_header();

  ObjectId id_;
  Bytes buf_;
  std::uint64_t alloc_top_ = kDataStart;
  std::uint32_t fot_count_ = 0;
  std::uint64_t version_ = 0;
};

using ObjectPtr = std::shared_ptr<Object>;

}  // namespace objrpc
