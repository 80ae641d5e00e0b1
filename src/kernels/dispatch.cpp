// Kernel-table dispatch: pick scalar vs AVX2 once, cache the choice in an
// atomic pointer. The CIRSTAG_SIMD environment variable is the one way to
// choose ("off" forces the scalar table); unset or unknown means "auto"
// (AVX2+FMA when the CPU reports both). set_simd_mode() re-picks the table
// in-process, which the scalar-vs-SIMD identity tests use to run both.

#include "kernels/kernels.hpp"

#include <cstdlib>

namespace cirstag::kernels {

namespace detail {
std::atomic<const KernelTable*> g_table{nullptr};
}  // namespace detail

bool avx2_available() {
  if (avx2_kernel_table() == nullptr) return false;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

const KernelTable* pick(const std::string& mode, bool& known) {
  known = true;
  if (mode == "off" || mode == "scalar") return &scalar_kernel_table();
  if (mode == "auto" || mode == "on" || mode == "avx2") {
    if (avx2_available()) return avx2_kernel_table();
    return &scalar_kernel_table();
  }
  known = false;
  return nullptr;
}

}  // namespace

namespace detail {
const KernelTable& resolve_table() {
  const char* env = std::getenv("CIRSTAG_SIMD");
  bool known = false;
  const KernelTable* t = env != nullptr ? pick(env, known) : nullptr;
  if (t == nullptr) {
    bool ignored = false;
    t = pick("auto", ignored);
  }
  // Benign race: concurrent first calls resolve to the same table.
  g_table.store(t, std::memory_order_release);
  return *t;
}
}  // namespace detail

bool set_simd_mode(const std::string& mode) {
  bool known = false;
  const KernelTable* t = pick(mode, known);
  if (!known) return false;
  detail::g_table.store(t, std::memory_order_release);
  return true;
}

}  // namespace cirstag::kernels
