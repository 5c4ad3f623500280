#include "objspace/object.hpp"

#include <cstring>

namespace objrpc {

namespace {
// Header field offsets within the object buffer.
constexpr std::uint64_t kOffMagic = 0;
constexpr std::uint64_t kOffFotCount = 4;
constexpr std::uint64_t kOffSize = 8;
constexpr std::uint64_t kOffAllocTop = 16;
constexpr std::uint64_t kOffVersion = 24;

void put_u32_at(Bytes& b, std::uint64_t off, std::uint32_t v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}
void put_u64_at(Bytes& b, std::uint64_t off, std::uint64_t v) {
  std::memcpy(b.data() + off, &v, sizeof v);
}
std::uint32_t get_u32_at(const Bytes& b, std::uint64_t off) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}
std::uint64_t get_u64_at(const Bytes& b, std::uint64_t off) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + off, sizeof v);
  return v;
}
}  // namespace

std::string GlobalPtr::to_string() const {
  return object.to_string() + "+" + std::to_string(offset);
}

Result<Object> Object::create(ObjectId id, std::uint64_t size) {
  if (id.is_null()) {
    return Error{Errc::invalid_argument, "null object id"};
  }
  if (size < kDataStart + FotEntry::kWireSize) {
    return Error{Errc::invalid_argument, "object too small"};
  }
  if (size - 1 > Ptr64::kMaxOffset) {
    return Error{Errc::invalid_argument,
                 "object exceeds 44-bit offset range"};
  }
  Object obj(id, Bytes(size, 0));
  obj.write_header();
  return obj;
}

Result<Object> Object::from_bytes(ObjectId id, Bytes bytes) {
  if (bytes.size() < kDataStart) {
    return Error{Errc::malformed, "short object image"};
  }
  Object obj(id, std::move(bytes));
  if (Status s = obj.read_header(); !s) return s.error();
  return obj;
}

void Object::write_header() {
  put_u32_at(buf_, kOffMagic, kMagic);
  put_u32_at(buf_, kOffFotCount, fot_count_);
  put_u64_at(buf_, kOffSize, buf_.size());
  put_u64_at(buf_, kOffAllocTop, alloc_top_);
  put_u64_at(buf_, kOffVersion, version_);
}

Status Object::read_header() {
  if (get_u32_at(buf_, kOffMagic) != kMagic) {
    return Error{Errc::malformed, "bad object magic"};
  }
  if (get_u64_at(buf_, kOffSize) != buf_.size()) {
    return Error{Errc::malformed, "size mismatch in object header"};
  }
  fot_count_ = get_u32_at(buf_, kOffFotCount);
  alloc_top_ = get_u64_at(buf_, kOffAllocTop);
  version_ = get_u64_at(buf_, kOffVersion);
  const std::uint64_t fot_bytes =
      static_cast<std::uint64_t>(fot_count_) * FotEntry::kWireSize;
  if (fot_bytes > buf_.size() - kDataStart ||
      alloc_top_ < kDataStart || alloc_top_ > buf_.size() - fot_bytes) {
    return Error{Errc::malformed, "inconsistent object header"};
  }
  return Status::ok();
}

Status Object::check_range(std::uint64_t offset, std::uint64_t len) const {
  // Data accesses may not touch the header or the FOT region.
  if (offset < kDataStart || len > buf_.size() ||
      offset > buf_.size() - len || offset + len > fot_region_start()) {
    return Error{Errc::out_of_range,
                 "access [" + std::to_string(offset) + ", +" +
                     std::to_string(len) + ") outside data region"};
  }
  return Status::ok();
}

Result<ByteSpan> Object::read(std::uint64_t offset, std::uint64_t len) const {
  if (Status s = check_range(offset, len); !s) return s.error();
  return ByteSpan{buf_.data() + offset, len};
}

Status Object::write(std::uint64_t offset, ByteSpan data) {
  if (Status s = check_range(offset, data.size()); !s) return s;
  std::memcpy(buf_.data() + offset, data.data(), data.size());
  ++version_;
  put_u64_at(buf_, kOffVersion, version_);
  return Status::ok();
}

Result<std::uint64_t> Object::read_u64(std::uint64_t offset) const {
  auto span = read(offset, 8);
  if (!span) return span.error();
  std::uint64_t v;
  std::memcpy(&v, span->data(), 8);
  return v;
}

Status Object::write_u64(std::uint64_t offset, std::uint64_t value) {
  std::uint8_t raw[8];
  std::memcpy(raw, &value, 8);
  return write(offset, ByteSpan{raw, 8});
}

Result<Ptr64> Object::load_ptr(std::uint64_t offset) const {
  auto v = read_u64(offset);
  if (!v) return v.error();
  return Ptr64::from_raw(*v);
}

Result<GlobalPtr> Object::resolve(Ptr64 p, Perm needed) const {
  if (p.is_null()) return GlobalPtr{};
  if (p.is_internal()) return GlobalPtr{id_, p.offset()};
  auto entry = fot_entry(p.fot_index());
  if (!entry) return entry.error();
  if (!has_perm(entry->perms, needed)) {
    return Error{Errc::permission_denied,
                 "FOT entry lacks required rights on " +
                     entry->target.to_string()};
  }
  return GlobalPtr{entry->target, p.offset()};
}

Result<FotEntry> Object::fot_entry(std::uint32_t index) const {
  if (index == Ptr64::kSelfIndex || index > fot_count_) {
    return Error{Errc::not_found,
                 "FOT index " + std::to_string(index) + " out of range"};
  }
  const std::uint64_t off =
      buf_.size() - static_cast<std::uint64_t>(index) * FotEntry::kWireSize;
  FotEntry e;
  e.target.value.lo = get_u64_at(buf_, off);
  e.target.value.hi = get_u64_at(buf_, off + 8);
  e.perms = static_cast<Perm>(get_u32_at(buf_, off + 16));
  return e;
}

Result<std::uint32_t> Object::add_fot_entry(ObjectId target, Perm perms) {
  if (target.is_null()) {
    return Error{Errc::invalid_argument, "null FOT target"};
  }
  // Dedup: reuse an existing entry with identical id and rights.
  for (std::uint32_t i = 1; i <= fot_count_; ++i) {
    auto e = fot_entry(i);
    if (e && e->target == target && e->perms == perms) return i;
  }
  if (fot_count_ + 1 > Ptr64::kMaxFotIndex) {
    return Error{Errc::capacity_exceeded, "FOT index space exhausted"};
  }
  const std::uint64_t new_start = fot_region_start() - FotEntry::kWireSize;
  if (new_start < alloc_top_) {
    return Error{Errc::capacity_exceeded, "FOT would collide with data"};
  }
  ++fot_count_;
  const std::uint64_t off = buf_.size() - static_cast<std::uint64_t>(
                                              fot_count_) *
                                              FotEntry::kWireSize;
  put_u64_at(buf_, off, target.value.lo);
  put_u64_at(buf_, off + 8, target.value.hi);
  put_u32_at(buf_, off + 16, static_cast<std::uint32_t>(perms));
  put_u32_at(buf_, off + 20, 0);
  ++version_;
  write_header();
  return fot_count_;
}

Result<Ptr64> Object::make_ref(ObjectId target, std::uint64_t target_offset,
                               Perm perms) {
  if (target_offset > Ptr64::kMaxOffset) {
    return Error{Errc::out_of_range, "offset exceeds 44-bit range"};
  }
  if (target == id_) return Ptr64::internal(target_offset);
  auto idx = add_fot_entry(target, perms);
  if (!idx) return idx.error();
  return Ptr64::foreign(*idx, target_offset);
}

Result<std::uint64_t> Object::alloc(std::uint64_t n, std::uint64_t align) {
  if (align == 0 || (align & (align - 1)) != 0) {
    return Error{Errc::invalid_argument, "alignment must be a power of two"};
  }
  const std::uint64_t start = (alloc_top_ + align - 1) & ~(align - 1);
  if (n > buf_.size() || start > fot_region_start() ||
      n > fot_region_start() - start) {
    return Error{Errc::capacity_exceeded,
                 "object full: need " + std::to_string(n) + " bytes"};
  }
  alloc_top_ = start + n;
  ++version_;
  write_header();
  return start;
}

Object Object::clone_as(ObjectId new_id) const {
  Object copy(new_id, buf_);
  copy.alloc_top_ = alloc_top_;
  copy.fot_count_ = fot_count_;
  copy.version_ = version_;
  return copy;
}

}  // namespace objrpc
