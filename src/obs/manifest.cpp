#include "obs/manifest.hpp"

#include <cstdio>

// Build provenance baked in by src/obs/CMakeLists.txt; the fallbacks keep
// the file compilable outside the CMake build (e.g. editor tooling).
#ifndef CIRSTAG_GIT_DESCRIBE
#define CIRSTAG_GIT_DESCRIBE "unknown"
#endif
#ifndef CIRSTAG_BUILD_TYPE
#define CIRSTAG_BUILD_TYPE "unknown"
#endif
#ifndef CIRSTAG_CXX_COMPILER
#define CIRSTAG_CXX_COMPILER "unknown"
#endif
#ifndef CIRSTAG_CXX_FLAGS
#define CIRSTAG_CXX_FLAGS ""
#endif

namespace cirstag::obs {

std::string fnv1a_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf, 16);
}

std::array<std::pair<const char*, std::uint64_t>, 7> PhaseChecksums::fields()
    const {
  return {{{"input_graph", input_graph},
           {"embedding", embedding},
           {"manifold_x", manifold_x},
           {"manifold_y", manifold_y},
           {"eigenvalues", eigenvalues},
           {"node_scores", node_scores},
           {"edge_scores", edge_scores}}};
}

std::string PhaseChecksums::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (const auto& [name, value] : fields()) w.field(name, fnv1a_hex(value));
  return w.end_object().take();
}

const BuildInfo& build_info() {
  static const BuildInfo info{CIRSTAG_GIT_DESCRIBE, CIRSTAG_BUILD_TYPE,
                              CIRSTAG_CXX_COMPILER, CIRSTAG_CXX_FLAGS};
  return info;
}

ManifestBuilder::ManifestBuilder() {
  const BuildInfo& info = build_info();
  set("manifest", "schema_version", 1);
  set("build", "git_describe", info.git_describe);
  set("build", "build_type", info.build_type);
  set("build", "compiler", info.compiler);
  set("build", "cxx_flags", info.cxx_flags);
}

ManifestBuilder::Section& ManifestBuilder::section(const std::string& name) {
  for (Section& s : sections_)
    if (s.name == name) return s;
  sections_.push_back({name, {}});
  return sections_.back();
}

void ManifestBuilder::set_raw(const std::string& sec, const std::string& key,
                              std::string raw) {
  Section& s = section(sec);
  for (auto& [k, v] : s.entries) {
    if (k == key) {
      v = std::move(raw);
      return;
    }
  }
  s.entries.emplace_back(key, std::move(raw));
}

void ManifestBuilder::set_checksums(const std::string& sec,
                                    const PhaseChecksums& checksums) {
  for (const auto& [name, value] : checksums.fields())
    set(sec, name, fnv1a_hex(value));
}

std::string ManifestBuilder::to_json() const {
  JsonWriter w;
  w.begin_object();
  for (const Section& s : sections_) {
    w.key(s.name).begin_object();
    for (const auto& [key, raw] : s.entries) w.key(key).raw(raw);
    w.end_object();
  }
  return w.end_object().take();
}

}  // namespace cirstag::obs
