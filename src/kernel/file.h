// Minimal page-cache-backed file object.
//
// Pages are allocated lazily on first access (the page cache holds one
// reference). A file's size is fixed at creation, so the cache is a table
// indexed by page number; pfn 0 lies in the allocator's reserved low range
// and marks an uncached page. Dirty state lives in the PTE dirty bits; the
// kernel charges writeback itself (SysMsyncClean).
#ifndef TLBSIM_SRC_KERNEL_FILE_H_
#define TLBSIM_SRC_KERNEL_FILE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/mm/phys.h"
#include "src/mm/pte.h"

namespace tlbsim {

class File {
 public:
  File(FrameAllocator* frames, uint64_t id, uint64_t size_bytes)
      : frames_(frames),
        id_(id),
        size_(size_bytes),
        pages_(PageIndex(size_bytes + kPageSize4K - 1), 0) {}
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File() {
    for (uint64_t pfn : pages_) {
      if (pfn != 0) {
        frames_->Unref(pfn);
      }
    }
  }

  uint64_t id() const { return id_; }
  uint64_t size() const { return size_; }

  // Returns the frame backing file offset `offset`, allocating it on first
  // touch. An offset past the size the file was created with is cached too.
  uint64_t GetPage(uint64_t offset) {
    uint64_t idx = PageIndex(offset);
    if (idx >= pages_.size()) {
      pages_.resize(idx + 1, 0);
    }
    if (pages_[idx] == 0) {
      pages_[idx] = frames_->Alloc();
      assert(pages_[idx] != 0 && "pfn 0 marks an uncached page");
    }
    return pages_[idx];
  }

  bool HasPage(uint64_t offset) const {
    uint64_t idx = PageIndex(offset);
    return idx < pages_.size() && pages_[idx] != 0;
  }

 private:
  static uint64_t PageIndex(uint64_t offset) { return offset >> kPageShift; }

  FrameAllocator* frames_;
  uint64_t id_;
  uint64_t size_;
  std::vector<uint64_t> pages_;  // page number -> pfn, 0 while not cached
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_KERNEL_FILE_H_
