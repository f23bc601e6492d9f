// Immutable, reference-counted payload buffers.
//
// A SharedBytes is a read-only view (pointer + length) into a heap buffer
// kept alive by a shared_ptr control block.  Copying one is two atomic ops;
// the bytes themselves are never duplicated.  This is what makes the RSR
// data path zero-copy: every link of a multicast, every forwarding hop, and
// every mailbox entry aliases the single buffer the sender produced.
//
// Immutability is the contract that keeps contexts logically isolated while
// sharing storage: no API hands out a mutable pointer, so a receiver can
// only "modify" a payload by copying it first (UnpackBuffer::get_bytes), and
// transform modules (secure/zrle) replace the whole buffer rather than
// editing in place.  See docs/ARCHITECTURE.md §8.
//
// Memory-order contract (docs/ARCHITECTURE.md §13): the refcount lives in
// the shared_ptr control block, whose standard-library implementation gives
// exactly the ordering a cross-thread payload handoff needs --
//
//   * increments (copying a SharedBytes) are relaxed: creating a new
//     reference needs no ordering of its own because the copier already
//     holds a live reference, so the count cannot hit zero concurrently;
//   * decrements (dropping one) are acq_rel: every release makes the
//     dropping thread's reads of the buffer visible-before the count can
//     reach zero, and the final decrement acquires all of them before the
//     destructor frees the block.  No thread can observe the buffer after
//     free, and no write to the control block is lost.
//
// Consequently a Packet whose payload crosses threads -- a realtime
// context's MPSC inbox, or a multicast fan-out shared by several receiver
// threads -- can be released by sender and receiver in any interleaving:
// the last owner -- whichever thread that is -- frees the buffer exactly
// once.  tests/test_shared_bytes.cpp (SharedBytesMt suite) stress-verifies
// this under ThreadSanitizer: concurrent copy/view/drop storms across
// threads, with the payload bytes re-verified on every side.  The class
// itself stays free of explicit atomics by design; if data_ is ever
// replaced with a hand-rolled refcount, it must reproduce the
// relaxed-increment / acq_rel-decrement discipline above.
#pragma once

#include <cstring>
#include <memory>
#include <utility>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace nexus::util {

class SharedBytes {
 public:
  SharedBytes() = default;

  /// Adopt a Bytes buffer without copying its contents (the vector's heap
  /// block is reused; one control-block allocation keeps it alive).
  /// Implicit so legacy `packet.payload = some_bytes` assignments keep
  /// working.
  SharedBytes(Bytes b) {  // NOLINT(google-explicit-constructor)
    if (b.empty()) return;
    auto owner = std::make_shared<Bytes>(std::move(b));
    const Byte* p = owner->data();
    size_ = owner->size();
    data_ = std::shared_ptr<const Byte>(std::move(owner), p);
  }

  /// Copy `src` into a fresh immutable buffer: exactly one allocation.
  static SharedBytes copy_of(ByteSpan src) {
    SharedBytes out;
    if (src.empty()) return out;
#if defined(__cpp_lib_smart_ptr_for_overwrite)
    std::shared_ptr<Byte[]> buf =
        std::make_shared_for_overwrite<Byte[]>(src.size());
#else
    std::shared_ptr<Byte[]> buf = std::make_shared<Byte[]>(src.size());
#endif
    std::memcpy(buf.get(), src.data(), src.size());
    const Byte* p = buf.get();
    out.size_ = src.size();
    out.data_ = std::shared_ptr<const Byte>(std::move(buf), p);
    return out;
  }

  const Byte* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const Byte& operator[](std::size_t i) const { return data_.get()[i]; }

  /// Read-only span over the bytes.  Deliberately not an implicit
  /// conversion: a span must not outlive the SharedBytes it came from, and
  /// explicit call sites keep that lifetime visible.
  ByteSpan span() const noexcept { return ByteSpan(data_.get(), size_); }

  /// Aliasing sub-view [offset, offset + length): shares the same buffer,
  /// no copy.  Throws UsageError if the range is out of bounds.
  SharedBytes view(std::size_t offset, std::size_t length) const {
    if (offset + length > size_) {
      throw UsageError("SharedBytes::view out of range");
    }
    SharedBytes out;
    if (length == 0) return out;
    out.data_ = std::shared_ptr<const Byte>(data_, data_.get() + offset);
    out.size_ = length;
    return out;
  }

  /// Mutable copy of the contents (the only way to get writable bytes).
  Bytes to_bytes() const { return Bytes(data(), data() + size()); }

  /// True when both views alias the same underlying control block (test and
  /// assertion helper; not part of the wire contract).
  bool aliases(const SharedBytes& other) const noexcept {
    return data_ != nullptr && !data_.owner_before(other.data_) &&
           !other.data_.owner_before(data_);
  }

  /// Outstanding references to the underlying buffer (0 when empty).
  long use_count() const noexcept { return data_.use_count(); }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  std::shared_ptr<const Byte> data_;
  std::size_t size_ = 0;
};

}  // namespace nexus::util
