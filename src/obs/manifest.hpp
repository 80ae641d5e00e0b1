#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace cirstag::obs {

// ---------------------------------------------------------------------------
// FNV-1a checksumming
//
// Per-phase checksums in the run manifest use 64-bit FNV-1a over the exact
// bit patterns of the produced doubles (bit_cast, not value rounding), so a
// checksum match certifies bitwise-identical intermediates — the same
// contract the determinism tests assert, but cheap enough to record on every
// run and diff across machines/thread counts in CI.

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

[[nodiscard]] inline std::uint64_t fnv1a_byte(std::uint64_t hash,
                                              std::uint8_t byte) {
  return (hash ^ byte) * kFnv1aPrime;
}

/// Fold one u64 into the hash, little-endian byte order (explicit byte
/// decomposition so the checksum is identical across host endianness).
[[nodiscard]] inline std::uint64_t fnv1a_u64(std::uint64_t hash,
                                             std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    hash = fnv1a_byte(hash, static_cast<std::uint8_t>(value >> (8 * i)));
  return hash;
}

[[nodiscard]] inline std::uint64_t fnv1a_double(std::uint64_t hash,
                                                double value) {
  return fnv1a_u64(hash, std::bit_cast<std::uint64_t>(value));
}

/// Checksum a span of doubles (bit patterns, order-sensitive).
[[nodiscard]] inline std::uint64_t fnv1a_doubles(
    std::span<const double> values, std::uint64_t hash = kFnv1aOffset) {
  for (const double v : values) hash = fnv1a_double(hash, v);
  return hash;
}

/// Fixed 16-digit lower-case hex rendering used in the manifest.
[[nodiscard]] std::string fnv1a_hex(std::uint64_t hash);

/// Checksums of every pipeline phase boundary of one report (analyze(), a
/// sweep baseline or a sweep variant). Zero means "phase not run" (e.g.
/// `embedding` when dimension reduction is disabled). Computed in core
/// (which can see Graph/Matrix); obs only defines the container and its
/// JSON form.
struct PhaseChecksums {
  std::uint64_t input_graph = 0;   ///< nodes, edges (u, v, weight bits)
  std::uint64_t embedding = 0;     ///< augmented U_M, row-major
  std::uint64_t manifold_x = 0;
  std::uint64_t manifold_y = 0;
  std::uint64_t eigenvalues = 0;   ///< DMD spectrum
  std::uint64_t node_scores = 0;
  std::uint64_t edge_scores = 0;

  /// (name, checksum) per phase in pipeline order: the one list of names
  /// that to_json() and ManifestBuilder::set_checksums() both walk.
  [[nodiscard]] std::array<std::pair<const char*, std::uint64_t>, 7> fields()
      const;
  /// {"input_graph": "<16 hex>", ...} — keys in pipeline order.
  [[nodiscard]] std::string to_json() const;
};

// ---------------------------------------------------------------------------
// Build provenance

/// Compile-time build provenance — the same git describe / build type /
/// compiler fields the manifest "build" section records, exposed so other
/// surfaces (`cirstag --version`, the serve /health endpoint) report the
/// identical identity.
struct BuildInfo {
  std::string git_describe;
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;
};

[[nodiscard]] const BuildInfo& build_info();

// ---------------------------------------------------------------------------
// Run-provenance manifest

/// Assembles the --manifest-json document: an ordered set of named sections,
/// each an ordered set of key/value entries. Sections render in insertion
/// order so manifests are byte-stable for identical inputs and diff cleanly.
///
/// A fresh builder already carries the "build" section (git describe, build
/// type, compiler, flags — baked in at compile time) and the manifest schema
/// version; callers add "run", "config", and "checksums" sections.
class ManifestBuilder {
 public:
  ManifestBuilder();

  /// Set `section`.`key` to `value` — a string, bool, integer or double,
  /// rendered by JsonWriter — replacing any earlier value of that key.
  template <class T>
  void set(const std::string& section, const std::string& key,
           const T& value) {
    set_raw(section, key, JsonWriter().value(value).take());
  }
  /// `raw` must already be valid JSON (object, array, or scalar).
  void set_raw(const std::string& section, const std::string& key,
               std::string raw);

  /// Convenience: add every PhaseChecksums field under `section` as hex
  /// strings, in pipeline order.
  void set_checksums(const std::string& section,
                     const PhaseChecksums& checksums);

  /// The whole manifest as one JSON object (one line, no trailing newline).
  [[nodiscard]] std::string to_json() const;

 private:
  struct Section {
    std::string name;
    std::vector<std::pair<std::string, std::string>> entries;  // key -> raw
  };
  Section& section(const std::string& name);

  std::vector<Section> sections_;
};

}  // namespace cirstag::obs
