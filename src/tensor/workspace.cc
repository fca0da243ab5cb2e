#include "tensor/workspace.h"

#include <algorithm>
#include <new>

#include "base/error.h"

namespace antidote {

namespace {
constexpr size_t kMinBlockBytes = size_t{1} << 20;  // 1 MiB

char* aligned_new(size_t bytes) {
  return static_cast<char*>(
      ::operator new(bytes, std::align_val_t{Workspace::kAlign}));
}

void aligned_delete(char* p) {
  ::operator delete(p, std::align_val_t{Workspace::kAlign});
}
}  // namespace

Workspace::~Workspace() {
  if (external_) return;  // the view does not own its memory
  for (Block& b : blocks_) aligned_delete(b.data);
}

void Workspace::bind_external(void* buffer, size_t bytes) {
  if (!external_) {
    // First bind of this object: it must not hold owned memory we would
    // silently leak or double-interpret.
    AD_CHECK(blocks_.empty()) << " bind_external on an owning workspace";
    blocks_.resize(1);  // one-entry table, reused by every rebind
    external_ = true;
  }
  blocks_[0] = Block{static_cast<char*>(buffer), bytes, 0};
  current_ = 0;
}

char* Workspace::raw_alloc(size_t bytes) {
  bytes = align_up(std::max<size_t>(bytes, 1));
  // Fast path: room in the current block.
  if (!blocks_.empty()) {
    Block& b = blocks_[current_];
    if (b.capacity - b.used >= bytes) {
      char* p = b.data + b.used;
      b.used += bytes;
      note_peak();
      return p;
    }
  }
  // A fixed view never grows: its size came from an exact worst-case
  // formula, so running out is a sizing bug, not a demand signal.
  AD_CHECK(!external_) << " fixed workspace slice exhausted (need " << bytes
                       << " B more of " << capacity_bytes() << " B)";
  // Advance through later (rewound) blocks if one is large enough.
  for (size_t i = current_ + 1; i < blocks_.size(); ++i) {
    blocks_[i].used = 0;
    current_ = i;
    if (blocks_[i].capacity >= bytes) {
      blocks_[i].used = bytes;
      note_peak();
      return blocks_[i].data;
    }
  }
  // Grow: at least double the arena so growth converges quickly.
  const size_t grow = std::max({bytes, capacity_bytes(), kMinBlockBytes});
  Block b;
  b.data = aligned_new(grow);
  b.capacity = grow;
  b.used = bytes;
  blocks_.push_back(b);
  current_ = blocks_.size() - 1;
  ++grow_count_;
  note_peak();
  return b.data;
}

void Workspace::note_peak() {
  peak_bytes_ = std::max(peak_bytes_, used_bytes());
}

void Workspace::rewind(Mark m) {
  AD_CHECK_LE(m.block, current_) << " workspace rewind out of order";
  for (size_t i = m.block + 1; i <= current_ && i < blocks_.size(); ++i) {
    blocks_[i].used = 0;
  }
  current_ = m.block;
  if (!blocks_.empty()) {
    AD_CHECK_LE(m.used, blocks_[current_].capacity);
    blocks_[current_].used = m.used;
  }
}

void Workspace::reserve(size_t bytes) {
  bytes = align_up(std::max<size_t>(bytes, 1));
  if (external_) {
    AD_CHECK_LE(blocks_[0].used + bytes, blocks_[0].capacity)
        << " reserve exceeds fixed workspace slice";
    return;
  }
  // Satisfied if any block from the allocation cursor onward has the room
  // (allocations walk forward through rewound blocks before growing).
  for (size_t i = current_; i < blocks_.size(); ++i) {
    const size_t used = i == current_ ? blocks_[i].used : 0;
    if (blocks_[i].capacity - used >= bytes) return;
  }
  Block b;
  b.data = aligned_new(bytes);
  b.capacity = bytes;
  b.used = 0;
  blocks_.push_back(b);
  ++grow_count_;
}

void Workspace::reset() {
  if (blocks_.size() > 1) {
    // Coalesce into one contiguous block covering everything the previous
    // pass needed, so future passes never spill (and never allocate).
    size_t total = 0;
    for (Block& b : blocks_) {
      total += b.capacity;
      aligned_delete(b.data);
    }
    blocks_.clear();
    Block b;
    b.data = aligned_new(total);
    b.capacity = total;
    b.used = 0;
    blocks_.push_back(b);
    ++grow_count_;
  } else if (!blocks_.empty()) {
    blocks_[0].used = 0;
  }
  current_ = 0;
}

size_t Workspace::capacity_bytes() const {
  size_t total = 0;
  for (const Block& b : blocks_) total += b.capacity;
  return total;
}

Workspace& thread_local_workspace() {
  static thread_local Workspace ws;
  return ws;
}

size_t Workspace::used_bytes() const {
  size_t total = 0;
  for (size_t i = 0; i <= current_ && i < blocks_.size(); ++i) {
    total += blocks_[i].used;
  }
  return total;
}

}  // namespace antidote
