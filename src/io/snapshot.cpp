#include "io/snapshot.hpp"

#include <cstring>
#include <fstream>
#include <span>
#include <type_traits>
#include <utility>

#include "obs/health.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace cirstag::io {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'T', 'G', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kEndianProbe = 0x01020304u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kAlignment = 64;

// Section ids (the table is id-keyed, so future versions can append
// sections without disturbing existing readers).
enum SectionId : std::uint64_t {
  kSectionMeta = 1,
  kSectionNetlist = 2,
  kSectionGnn = 3,
  kSectionSweep = 4,
};

const obs::Counter& snapshot_writes() {
  static const obs::Counter c("snapshot.writes");
  return c;
}
const obs::Counter& snapshot_reads() {
  static const obs::Counter c("snapshot.reads");
  return c;
}
const obs::Counter& snapshot_read_failures() {
  static const obs::Counter c("snapshot.read_failures");
  return c;
}

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
  snapshot_read_failures().add();
  obs::record_health_event("snapshot.corrupt",
                           "snapshot '" + path + "': " + reason, 0.0, 0.0,
                           obs::HealthSeverity::error);
  throw SnapshotError("snapshot '" + path + "': " + reason);
}

// --- byte-stream primitives -------------------------------------------------
// Scalars and arrays are written field-by-field (never whole structs, so
// padding bytes cannot leak) in host byte order; the header's endianness
// probe keeps cross-endian files out.

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  template <class T>
  void array(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    raw(values.data(), values.size() * sizeof(T));
  }

  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, std::string path,
             std::string section)
      : data_(data), path_(std::move(path)), section_(std::move(section)) {}

  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0.0;
    raw(&v, sizeof v);
    return v;
  }

  template <class T>
  std::vector<T> array() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t count = u64();
    // Overflow-safe bound: the count must fit in the remaining bytes.
    if (count > (data_.size() - pos_) / sizeof(T))
      truncated("array of " + std::to_string(count) + " elements");
    std::vector<T> out(count);
    raw(out.data(), count * sizeof(T));
    return out;
  }

  void raw(void* out, std::size_t n) {
    // An empty array (a net with no sinks) has a null data(), which
    // memcpy must not see even for zero bytes.
    if (n == 0) return;
    if (n > data_.size() - pos_) truncated(std::to_string(n) + " bytes");
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[noreturn]] void truncated(const std::string& what) {
    fail(path_, "truncated " + section_ + " section (need " + what + ", " +
                    std::to_string(remaining()) + " bytes left)");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::string path_;
  std::string section_;
};

// --- composite writers/readers ----------------------------------------------

void write_matrix(ByteWriter& w, const linalg::Matrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.raw(m.data().data(), m.data().size() * sizeof(double));
}

linalg::Matrix read_matrix(ByteReader& r, const std::string& path) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  if (cols > r.remaining() / sizeof(double) ||
      (cols != 0 && rows > r.remaining() / (cols * sizeof(double))))
    fail(path, "matrix dimensions exceed file size");
  linalg::Matrix m(rows, cols);
  r.raw(m.data().data(), rows * cols * sizeof(double));
  return m;
}

void write_graph(ByteWriter& w, const graphs::Graph& g) {
  w.u64(g.num_nodes());
  w.u64(g.num_edges());
  for (const graphs::Edge& e : g.edges()) {
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.weight);
  }
}

graphs::Graph read_graph(ByteReader& r, const std::string& path) {
  const std::uint64_t n = r.u64();
  const std::uint64_t m = r.u64();
  if (m > r.remaining() / 16) fail(path, "graph edge count exceeds file size");
  graphs::Graph g(n);
  for (std::uint64_t e = 0; e < m; ++e) {
    const std::uint32_t u = r.u32();
    const std::uint32_t v = r.u32();
    const double w = r.f64();
    // add_edge validates endpoints, self-loops, and weight positivity —
    // corrupt content surfaces as a clean failure here.
    g.add_edge(u, v, w);
  }
  return g;
}

// --- section payloads -------------------------------------------------------

std::vector<std::uint8_t> build_meta_section(const SnapshotMeta& meta) {
  ByteWriter w;
  w.u8(meta.exact ? 1 : 0);
  w.f64(meta.train_r2);
  return w.bytes();
}

std::vector<std::uint8_t> build_netlist_section(
    const circuit::Netlist& nl) {
  ByteWriter w;
  w.u64(nl.num_pins());
  for (const circuit::Pin& p : nl.pins()) {
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.u32(p.gate);
    w.u32(p.net);
    w.f64(p.capacitance);
  }
  w.u64(nl.num_gates());
  for (const circuit::Gate& g : nl.gates()) {
    w.u16(g.type);
    w.u32(g.module_label);
    w.u32(g.output);
    w.array<circuit::PinId>(g.inputs);
  }
  w.u64(nl.num_nets());
  for (const circuit::Net& n : nl.nets()) {
    w.u32(n.driver);
    w.f64(n.wire_resistance);
    w.f64(n.wire_capacitance);
    w.array<circuit::PinId>(n.sinks);
  }
  w.array<circuit::PinId>(nl.primary_inputs());
  w.array<circuit::PinId>(nl.primary_outputs());
  return w.bytes();
}

std::vector<std::uint8_t> build_gnn_section(gnn::TimingGnn& model) {
  ByteWriter w;
  const gnn::TimingGnnOptions& o = model.options();
  w.u64(o.hidden_dim);
  w.u64(o.num_conv_layers);
  w.u8(o.use_dag_propagation ? 1 : 0);
  w.u64(o.epochs);
  w.f64(o.learning_rate);
  w.f64(o.grad_clip);
  w.u64(o.seed);
  const std::vector<gnn::Param*> params = model.trainable_params();
  w.u64(params.size());
  for (const gnn::Param* p : params) write_matrix(w, p->value);
  w.array<double>(model.feature_scaler().mean());
  w.array<double>(model.feature_scaler().inv_std());
  w.f64(model.target_mean());
  w.f64(model.target_scale());
  return w.bytes();
}

/// What the baseline's solves produced: the DMD eigenvalues and V_s, both
/// manifolds and U_M. The restoring engine derives everything else.
std::vector<std::uint8_t> build_sweep_section(
    const core::SweepBaselineState& s) {
  ByteWriter w;
  w.array<double>(s.baseline.eigenvalues);
  write_matrix(w, s.baseline.weighted_subspace);
  write_graph(w, s.baseline.manifold_x);
  write_graph(w, s.baseline.manifold_y);
  write_matrix(w, s.u0);
  return w.bytes();
}

// --- header/table assembly --------------------------------------------------

std::uint64_t checksum_bytes(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = obs::kFnv1aOffset;
  for (const std::uint8_t b : bytes) h = obs::fnv1a_byte(h, b);
  return h;
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  std::memcpy(out, &v, sizeof v);
}
void put_u64(std::uint8_t* out, std::uint64_t v) {
  std::memcpy(out, &v, sizeof v);
}

}  // namespace

void write_snapshot(const std::string& path, gnn::TimingGnn& model,
                    const core::SweepEngine& engine,
                    const SnapshotMeta& meta) {
  const core::SweepBaselineState& state = engine.export_baseline_state();

  struct Section {
    std::uint64_t id;
    std::vector<std::uint8_t> payload;
    std::uint64_t offset = 0;
  };
  std::vector<Section> sections;
  sections.push_back({kSectionMeta, build_meta_section(meta)});
  sections.push_back({kSectionNetlist, build_netlist_section(model.netlist())});
  sections.push_back({kSectionGnn, build_gnn_section(model)});
  sections.push_back({kSectionSweep, build_sweep_section(state)});

  // Section table sits right after the header; payloads are 64-byte aligned.
  const std::size_t table_bytes = sections.size() * 24;
  std::uint64_t cursor = kHeaderBytes + table_bytes;
  for (Section& s : sections) {
    cursor = (cursor + kAlignment - 1) / kAlignment * kAlignment;
    s.offset = cursor;
    cursor += s.payload.size();
  }
  const std::uint64_t file_size = cursor;

  std::vector<std::uint8_t> file(file_size, 0);
  std::uint8_t* table = file.data() + kHeaderBytes;
  for (const Section& s : sections) {
    put_u64(table, s.id);
    put_u64(table + 8, s.offset);
    put_u64(table + 16, s.payload.size());
    table += 24;
    std::memcpy(file.data() + s.offset, s.payload.data(), s.payload.size());
  }

  std::memcpy(file.data(), kMagic, sizeof kMagic);
  put_u32(file.data() + 8, kEndianProbe);
  put_u32(file.data() + 12, kSnapshotFormatVersion);
  put_u64(file.data() + 16,
          checksum_bytes({file.data() + kHeaderBytes,
                          file.size() - kHeaderBytes}));
  put_u64(file.data() + 24, file_size);
  put_u64(file.data() + 32, sections.size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    throw SnapshotError("snapshot '" + path + "': cannot open for writing");
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  if (!out)
    throw SnapshotError("snapshot '" + path + "': write failed");
  snapshot_writes().add();
  static const obs::Gauge bytes_gauge("snapshot.bytes");
  bytes_gauge.set(static_cast<double>(file.size()));
}

SnapshotData read_snapshot(const std::string& path,
                           const circuit::CellLibrary& lib) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail(path, "cannot open");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> file(static_cast<std::size_t>(size));
  if (!in.read(reinterpret_cast<char*>(file.data()), size))
    fail(path, "read failed");

  if (file.size() < kHeaderBytes) fail(path, "truncated header");
  if (std::memcmp(file.data(), kMagic, sizeof kMagic) != 0)
    fail(path, "bad magic (not a cirstag snapshot)");
  std::uint32_t probe = 0;
  std::memcpy(&probe, file.data() + 8, sizeof probe);
  if (probe != kEndianProbe)
    fail(path, "endianness mismatch (written on a different-endian host)");
  std::uint32_t version = 0;
  std::memcpy(&version, file.data() + 12, sizeof version);
  if (version != kSnapshotFormatVersion)
    fail(path, "unsupported format version " + std::to_string(version) +
                   " (expected " + std::to_string(kSnapshotFormatVersion) +
                   ")");
  std::uint64_t stored_checksum = 0, stored_size = 0, section_count = 0;
  std::memcpy(&stored_checksum, file.data() + 16, 8);
  std::memcpy(&stored_size, file.data() + 24, 8);
  std::memcpy(&section_count, file.data() + 32, 8);
  if (stored_size != file.size())
    fail(path, "file size mismatch (header says " +
                   std::to_string(stored_size) + ", file has " +
                   std::to_string(file.size()) + " bytes)");
  const std::uint64_t actual_checksum = checksum_bytes(
      {file.data() + kHeaderBytes, file.size() - kHeaderBytes});
  if (actual_checksum != stored_checksum)
    fail(path, "checksum mismatch (corrupt payload)");
  if (section_count > (file.size() - kHeaderBytes) / 24)
    fail(path, "section table exceeds file size");

  // Parse the section table into bounded payload spans.
  std::span<const std::uint8_t> meta_span, netlist_span, gnn_span, sweep_span;
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::uint8_t* entry = file.data() + kHeaderBytes + i * 24;
    std::uint64_t id = 0, offset = 0, length = 0;
    std::memcpy(&id, entry, 8);
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&length, entry + 16, 8);
    if (offset > file.size() || length > file.size() - offset)
      fail(path, "section " + std::to_string(id) + " out of bounds");
    const std::span<const std::uint8_t> payload{file.data() + offset, length};
    switch (id) {
      case kSectionMeta: meta_span = payload; break;
      case kSectionNetlist: netlist_span = payload; break;
      case kSectionGnn: gnn_span = payload; break;
      case kSectionSweep: sweep_span = payload; break;
      default: break;  // unknown sections are skippable by design
    }
  }
  if (meta_span.empty() || netlist_span.empty() || gnn_span.empty() ||
      sweep_span.empty())
    fail(path, "missing required section");

  SnapshotData data{.netlist = circuit::Netlist(lib)};
  try {
    {
      ByteReader r(meta_span, path, "meta");
      data.meta.exact = r.u8() != 0;
      data.meta.train_r2 = r.f64();
    }
    {
      ByteReader r(netlist_span, path, "netlist");
      const std::uint64_t np = r.u64();
      if (np > netlist_span.size() / 17)
        fail(path, "pin count exceeds section size");
      std::vector<circuit::Pin> pins(np);
      for (circuit::Pin& p : pins) {
        const std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(circuit::PinKind::CellOutput))
          fail(path, "invalid pin kind");
        p.kind = static_cast<circuit::PinKind>(kind);
        p.gate = r.u32();
        p.net = r.u32();
        p.capacitance = r.f64();
      }
      const std::uint64_t ng = r.u64();
      if (ng > netlist_span.size() / 18)
        fail(path, "gate count exceeds section size");
      std::vector<circuit::Gate> gates(ng);
      for (circuit::Gate& g : gates) {
        g.type = r.u16();
        g.module_label = r.u32();
        g.output = r.u32();
        g.inputs = r.array<circuit::PinId>();
      }
      const std::uint64_t nn = r.u64();
      if (nn > netlist_span.size() / 28)
        fail(path, "net count exceeds section size");
      std::vector<circuit::Net> nets(nn);
      for (circuit::Net& n : nets) {
        n.driver = r.u32();
        n.wire_resistance = r.f64();
        n.wire_capacitance = r.f64();
        n.sinks = r.array<circuit::PinId>();
      }
      std::vector<circuit::PinId> pis = r.array<circuit::PinId>();
      std::vector<circuit::PinId> pos = r.array<circuit::PinId>();
      // from_parts range-checks every cross-reference and finalize()
      // re-validates connectivity/acyclicity — corrupt structure that
      // survived the checksum still fails cleanly here.
      data.netlist = circuit::Netlist::from_parts(
          lib, std::move(pins), std::move(gates), std::move(nets),
          std::move(pis), std::move(pos));
    }
    {
      ByteReader r(gnn_span, path, "gnn");
      data.gnn_options.hidden_dim = r.u64();
      data.gnn_options.num_conv_layers = r.u64();
      data.gnn_options.use_dag_propagation = r.u8() != 0;
      data.gnn_options.epochs = r.u64();
      data.gnn_options.learning_rate = r.f64();
      data.gnn_options.grad_clip = r.f64();
      data.gnn_options.seed = r.u64();
      const std::uint64_t params = r.u64();
      if (params > gnn_span.size() / 16)
        fail(path, "parameter count exceeds section size");
      data.gnn_params.reserve(params);
      for (std::uint64_t i = 0; i < params; ++i)
        data.gnn_params.push_back(read_matrix(r, path));
      data.scaler_mean = r.array<double>();
      data.scaler_inv_std = r.array<double>();
      data.target_mean = r.f64();
      data.target_scale = r.f64();
    }
    {
      ByteReader r(sweep_span, path, "sweep");
      core::SweepBaselineState& s = data.state;
      s.baseline.eigenvalues = r.array<double>();
      s.baseline.weighted_subspace = read_matrix(r, path);
      s.baseline.manifold_x = read_graph(r, path);
      s.baseline.manifold_y = read_graph(r, path);
      s.u0 = read_matrix(r, path);
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    // Structural validation inside Netlist/Graph throws
    // std::invalid_argument & friends; surface them as snapshot corruption.
    fail(path, e.what());
  }
  snapshot_reads().add();
  return data;
}

std::unique_ptr<gnn::TimingGnn> restore_model(const circuit::Netlist& netlist,
                                              const SnapshotData& data) {
  auto model = std::make_unique<gnn::TimingGnn>(netlist, data.gnn_options);
  try {
    model->restore_trained_state(data.gnn_params, data.scaler_mean,
                                 data.scaler_inv_std, data.target_mean,
                                 data.target_scale);
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("snapshot model restore: ") + e.what());
  }
  return model;
}

}  // namespace cirstag::io
