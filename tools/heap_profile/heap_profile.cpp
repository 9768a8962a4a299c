// Heap-site profiler: a malloc shim loaded with LD_PRELOAD into any program
// of this repo (docs/performance.md, "Heap-site profiles").
//
//   export SBFT_HEAP_PROFILE_OUT=heap.txt
//   LD_PRELOAD=build/libheap_profile.so build/example_quickstart
//   python3 tools/heap_sites.py heap.txt
//
// The shim replaces malloc and its relatives and forwards each call to
// glibc's own allocator (__libc_malloc and friends). It
//   * counts the live heap exactly, in the bytes the allocator set aside for
//     each block (malloc_usable_size), and keeps its peak;
//   * samples about one allocation per 8 KiB allocated — a Poisson process
//     over the allocated bytes, as tcmalloc's heap profiler samples — and
//     charges each sample's call stack with the sample's unbiased byte
//     estimate while the block lives;
//   * copies the per-site live estimates each time the live heap reaches a
//     new peak, if a sample was taken or freed since the last copy;
//   * at exit, writes the peak and the top sites at that peak, one frame per
//     field as module+offset, to the file SBFT_HEAP_PROFILE_OUT names
//     (nothing when it is unset).
// tools/heap_sites.py symbolizes the frames and groups the sites.
//
// Built as a shared library that nothing links. It is not built into a
// sanitizer build: ASan must come first in the preload order.
#include <elf.h>
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
void* __libc_malloc(size_t size);
void __libc_free(void* ptr);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* ptr, size_t size);
void* __libc_memalign(size_t alignment, size_t size);
}

namespace {

constexpr double kSampleInterval = 8192;  // mean bytes between samples
constexpr int kMaxFrames = 24;
constexpr int kMaxShimFrames = 6;  // the shim's own frames, skipped
constexpr size_t kMaxSites = size_t{1} << 14;
constexpr size_t kSiteSlots = kMaxSites * 2;        // open addressing
constexpr size_t kSampleSlots = size_t{1} << 18;    // live sampled blocks
constexpr size_t kMaxLiveSamples = kSampleSlots / 4 * 3;
constexpr size_t kTopSites = 200;

struct Site {
  uint64_t hash;
  int depth;
  void* frames[kMaxFrames];
};

struct Sample {
  uintptr_t ptr;  // 0: free slot
  uint32_t site;
  int64_t bytes;  // the estimate this block carries
};

// Everything below is static storage: the shim allocates nothing itself.
Site g_sites[kMaxSites];
size_t g_num_sites = 0;
uint32_t g_site_slots[kSiteSlots];  // site index + 1; 0: free
int64_t g_site_live[kMaxSites];     // estimated live bytes per site
int64_t g_site_at_peak[kMaxSites];  // g_site_live as of the last peak copy
Sample g_samples[kSampleSlots];
size_t g_live_samples = 0;

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
bool g_ready = false;  // backtrace primed; sampling on
bool g_dirty = false;  // g_site_live changed since the last peak copy
double g_until_sample = kSampleInterval;
uint64_t g_rng = 0x9e3779b97f4a7c15ull;
uint64_t g_samples_taken = 0;
uint64_t g_samples_dropped = 0;  // a table was full
char g_exe[4096];                // the main program's path
uintptr_t g_exe_base = 0;        // where its ELF header is mapped
uintptr_t g_shim_lo = 0, g_shim_hi = 0;  // this library's mapped range

// Set while this thread holds g_lock: an allocation made inside the shim
// (backtrace loading libgcc_s, say) is counted, but neither sampled nor
// locked again.
thread_local bool t_locked __attribute__((tls_model("initial-exec"))) = false;

double next_interval() {
  g_rng ^= g_rng >> 12;
  g_rng ^= g_rng << 25;
  g_rng ^= g_rng >> 27;
  double u = static_cast<double>((g_rng * 0x2545f4914f6cdd1dull) >> 11) * 0x1p-53;
  return -std::log(1.0 - u) * kSampleInterval;
}

size_t sample_slot(uintptr_t ptr) {
  return static_cast<size_t>((ptr >> 4) * 0x9e3779b97f4a7c15ull >> 46) &
         (kSampleSlots - 1);
}

uint32_t intern_site(void* const* frames, int depth) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < depth; ++i) {
    hash = (hash ^ reinterpret_cast<uintptr_t>(frames[i])) * 0x100000001b3ull;
  }
  for (size_t slot = hash & (kSiteSlots - 1);; slot = (slot + 1) & (kSiteSlots - 1)) {
    uint32_t index = g_site_slots[slot];
    if (index == 0) {
      if (g_num_sites == kMaxSites) return UINT32_MAX;
      Site& site = g_sites[g_num_sites];
      site.hash = hash;
      site.depth = depth;
      std::memcpy(site.frames, frames, sizeof(void*) * static_cast<size_t>(depth));
      g_site_slots[slot] = static_cast<uint32_t>(++g_num_sites);
      return static_cast<uint32_t>(g_num_sites - 1);
    }
    const Site& site = g_sites[index - 1];
    if (site.hash == hash && site.depth == depth &&
        std::memcmp(site.frames, frames, sizeof(void*) * static_cast<size_t>(depth)) == 0) {
      return index - 1;
    }
  }
}

void take_sample(void* ptr, size_t size) {
  void* frames[kMaxFrames + kMaxShimFrames];
  int captured = backtrace(frames, kMaxFrames + kMaxShimFrames);
  int skip = 0;
  while (skip < captured && reinterpret_cast<uintptr_t>(frames[skip]) >= g_shim_lo &&
         reinterpret_cast<uintptr_t>(frames[skip]) < g_shim_hi) {
    ++skip;
  }
  int depth = std::min(captured - skip, kMaxFrames);
  if (depth <= 0) return;
  ++g_samples_taken;
  uint32_t site = intern_site(frames + skip, depth);
  if (site == UINT32_MAX || g_live_samples == kMaxLiveSamples) {
    ++g_samples_dropped;
    return;
  }
  // A block of s bytes holds at least one sample point with probability
  // 1 - exp(-s/T); dividing by it makes the estimate unbiased.
  double s = static_cast<double>(size);
  auto bytes = static_cast<int64_t>(s / -std::expm1(-s / kSampleInterval));
  auto key = reinterpret_cast<uintptr_t>(ptr);
  size_t slot = sample_slot(key);
  while (g_samples[slot].ptr != 0) slot = (slot + 1) & (kSampleSlots - 1);
  g_samples[slot] = {key, site, bytes};
  ++g_live_samples;
  g_site_live[site] += bytes;
  g_dirty = true;
}

void drop_sample(void* ptr) {
  auto key = reinterpret_cast<uintptr_t>(ptr);
  size_t slot = sample_slot(key);
  while (g_samples[slot].ptr != key) {
    if (g_samples[slot].ptr == 0) return;  // not sampled
    slot = (slot + 1) & (kSampleSlots - 1);
  }
  g_site_live[g_samples[slot].site] -= g_samples[slot].bytes;
  g_dirty = true;
  --g_live_samples;
  // Backward-shift deletion keeps every probe chain unbroken.
  for (size_t next = (slot + 1) & (kSampleSlots - 1);;
       next = (next + 1) & (kSampleSlots - 1)) {
    if (g_samples[next].ptr == 0) break;
    size_t home = sample_slot(g_samples[next].ptr);
    if (((next - home) & (kSampleSlots - 1)) >= ((next - slot) & (kSampleSlots - 1))) {
      g_samples[slot] = g_samples[next];
      slot = next;
    }
  }
  g_samples[slot].ptr = 0;
}

class Guard {
 public:
  Guard() : outer_(!t_locked) {
    if (!outer_) return;
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
    t_locked = true;
  }
  ~Guard() {
    if (!outer_) return;
    t_locked = false;
    g_lock.clear(std::memory_order_release);
  }
  bool outer() const { return outer_; }

 private:
  bool outer_;
};

void note_alloc(void* ptr) {
  if (ptr == nullptr) return;
  size_t size = malloc_usable_size(ptr);
  int64_t live = g_live.fetch_add(static_cast<int64_t>(size)) +
                 static_cast<int64_t>(size);
  Guard guard;
  if (guard.outer() && g_ready) {
    g_until_sample -= static_cast<double>(size);
    if (g_until_sample < 0) {
      g_until_sample = next_interval();
      take_sample(ptr, size);
    }
  }
  if (live > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(live, std::memory_order_relaxed);
    if (g_dirty) {
      std::memcpy(g_site_at_peak, g_site_live, sizeof(int64_t) * g_num_sites);
      g_dirty = false;
    }
  }
}

void note_free(void* ptr) {
  if (ptr == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(ptr)));
  Guard guard;
  drop_sample(ptr);
}

// --- the report -------------------------------------------------------------

struct Out {
  int fd;
  char buf[1 << 16];
  size_t used;

  void flush() {
    for (size_t done = 0; done < used;) {
      ssize_t n = ::write(fd, buf + done, used - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    used = 0;
  }
  __attribute__((format(printf, 2, 3))) void put(const char* format, ...) {
    if (sizeof(buf) - used < 4096) flush();
    va_list args;
    va_start(args, format);
    int n = std::vsnprintf(buf + used, sizeof(buf) - used, format, args);
    va_end(args);
    if (n > 0) used += std::min(static_cast<size_t>(n), sizeof(buf) - used - 1);
  }
};

Out g_out;

void print_frame(Out& out, void* frame) {
  Dl_info info;
  auto addr = reinterpret_cast<uintptr_t>(frame);
  if (dladdr(frame, &info) == 0 || info.dli_fbase == nullptr) {
    out.put(" ?+0x%lx", static_cast<unsigned long>(addr));
    return;
  }
  auto base = reinterpret_cast<uintptr_t>(info.dli_fbase);
  const char* module = base == g_exe_base && g_exe[0] != '\0' ? g_exe : info.dli_fname;
  // A position-dependent executable's symbols sit at their absolute address.
  auto type = reinterpret_cast<const ElfW(Ehdr)*>(info.dli_fbase)->e_type;
  out.put(" %s+0x%lx", module,
          static_cast<unsigned long>(type == ET_EXEC ? addr : addr - base));
}

void write_report() {
  const char* path = std::getenv("SBFT_HEAP_PROFILE_OUT");
  if (path == nullptr || path[0] == '\0') return;
  Guard guard;
  Out& out = g_out;
  out.fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out.fd < 0) return;
  out.put("sbft-heap-profile 1\n");
  out.put("peak_bytes %lld\n", static_cast<long long>(g_peak.load()));
  out.put("final_bytes %lld\n", static_cast<long long>(g_live.load()));
  out.put("sample_interval %d\n", static_cast<int>(kSampleInterval));
  out.put("samples %llu dropped %llu\n",
          static_cast<unsigned long long>(g_samples_taken),
          static_cast<unsigned long long>(g_samples_dropped));
  // The top sites at the peak, largest first (selection: no allocation).
  static bool printed[kMaxSites];
  for (size_t rank = 0; rank < kTopSites; ++rank) {
    size_t best = kMaxSites;
    for (size_t i = 0; i < g_num_sites; ++i) {
      if (printed[i] || g_site_at_peak[i] <= 0) continue;
      if (best == kMaxSites || g_site_at_peak[i] > g_site_at_peak[best]) best = i;
    }
    if (best == kMaxSites) break;
    printed[best] = true;
    out.put("site %lld", static_cast<long long>(g_site_at_peak[best]));
    for (int f = 0; f < g_sites[best].depth; ++f) print_frame(out, g_sites[best].frames[f]);
    out.put("\n");
  }
  out.flush();
  ::close(out.fd);
}

int find_modules(dl_phdr_info* info, size_t, void* first) {
  uintptr_t lo = UINTPTR_MAX, hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    lo = std::min<uintptr_t>(lo, info->dlpi_addr + ph.p_vaddr);
    hi = std::max<uintptr_t>(hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
  }
  // The first object is the main program; its ELF header is mapped at the
  // start of its lowest loadable segment.
  if (*static_cast<bool*>(first)) {
    *static_cast<bool*>(first) = false;
    g_exe_base = lo & ~uintptr_t{0xfff};
  }
  auto self = reinterpret_cast<uintptr_t>(&find_modules);
  if (lo <= self && self < hi) {
    g_shim_lo = lo;
    g_shim_hi = hi;
  }
  return 0;
}

__attribute__((constructor)) void start() {
  ssize_t n = ::readlink("/proc/self/exe", g_exe, sizeof(g_exe) - 1);
  g_exe[n > 0 ? n : 0] = '\0';
  bool first = true;
  dl_iterate_phdr(find_modules, &first);
  {
    // backtrace loads libgcc_s on first use; do that before sampling starts.
    Guard guard;
    void* frames[4];
    backtrace(frames, 4);
  }
  g_until_sample = next_interval();
  g_ready = true;
}

__attribute__((destructor)) void finish() { write_report(); }

}  // namespace

// --- the allocator entry points -----------------------------------------------

extern "C" {

void* malloc(size_t size) {
  void* ptr = __libc_malloc(size);
  note_alloc(ptr);
  return ptr;
}

void free(void* ptr) {
  note_free(ptr);
  __libc_free(ptr);
}

void* calloc(size_t count, size_t size) {
  void* ptr = __libc_calloc(count, size);
  note_alloc(ptr);
  return ptr;
}

void* realloc(void* ptr, size_t size) {
  if (ptr == nullptr) return malloc(size);
  if (size == 0) {
    free(ptr);
    return nullptr;
  }
  size_t old_size = malloc_usable_size(ptr);
  void* moved = __libc_realloc(ptr, size);
  if (moved == nullptr) return nullptr;  // the old block is untouched
  g_live.fetch_sub(static_cast<int64_t>(old_size));
  {
    Guard guard;
    drop_sample(ptr);
  }
  note_alloc(moved);
  return moved;
}

void* reallocarray(void* ptr, size_t count, size_t size) {
  size_t bytes;
  if (__builtin_mul_overflow(count, size, &bytes)) {
    errno = ENOMEM;
    return nullptr;
  }
  return realloc(ptr, bytes);
}

void* memalign(size_t alignment, size_t size) {
  void* ptr = __libc_memalign(alignment, size);
  note_alloc(ptr);
  return ptr;
}

void* aligned_alloc(size_t alignment, size_t size) { return memalign(alignment, size); }

int posix_memalign(void** out, size_t alignment, size_t size) {
  if (alignment == 0 || alignment % sizeof(void*) != 0 ||
      (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  void* ptr = memalign(alignment, size);
  if (ptr == nullptr) return ENOMEM;
  *out = ptr;
  return 0;
}

void* valloc(size_t size) {
  return memalign(static_cast<size_t>(sysconf(_SC_PAGESIZE)), size);
}

void* pvalloc(size_t size) {
  auto page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return memalign(page, (size + page - 1) / page * page);
}

}  // extern "C"
