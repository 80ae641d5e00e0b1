#pragma once

#include <memory>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/sta.hpp"
#include "gnn/adam.hpp"
#include "gnn/layers.hpp"
#include "gnn/normalize.hpp"

namespace cirstag::gnn {

/// Hyper-parameters of the pin-level timing GNN.
struct TimingGnnOptions {
  std::size_t hidden_dim = 32;
  std::size_t num_conv_layers = 2;
  /// Append a levelized DAG-propagation layer (TimingGCN-style) after the
  /// convolution stack, giving every pin a full fan-in-cone receptive field
  /// like real STA. Strongly recommended; without it the surrogate cannot
  /// respond to capacitance changes more than num_conv_layers hops upstream.
  bool use_dag_propagation = true;
  std::size_t epochs = 400;
  double learning_rate = 8e-3;
  double grad_clip = 5.0;
  std::uint64_t seed = 42;
  bool verbose = false;
};

/// Training diagnostics.
struct TrainStats {
  std::vector<double> loss_history;
  double final_loss = 0.0;
  double r2 = 0.0;  ///< against the golden STA labels
};

/// Frozen full forward pass of one feature matrix — the baseline that
/// forward_incremental() patches for nearby (perturbed) feature matrices.
struct GnnSnapshot {
  linalg::Matrix std_features;                ///< standardized input
  std::vector<linalg::Matrix> layer_outputs;  ///< after each conv-stack layer
  linalg::Matrix head_output;                 ///< raw head output (n x 1)
  std::vector<double> prediction;             ///< de-normalized arrivals
};

/// Reuse accounting of one incremental forward.
struct GnnIncrementalStats {
  std::size_t dirty_input_rows = 0;  ///< feature rows that differed
  std::size_t recomputed_rows = 0;   ///< row evaluations summed over layers
  std::size_t total_rows = 0;        ///< pins x layers (full-forward cost)

  /// Fraction of per-layer row work actually done (1.0 on an empty model).
  [[nodiscard]] double row_fraction() const {
    return total_rows == 0 ? 1.0
                           : static_cast<double>(recomputed_rows) /
                                 static_cast<double>(total_rows);
  }
};

/// Output of an incremental forward: the full variant embedding and
/// prediction.
struct GnnIncrementalResult {
  linalg::Matrix embedding;        ///< variant hidden states (n x d)
  std::vector<double> prediction;  ///< variant de-normalized arrivals
};

/// Pre-routing timing predictor standing in for the GNN of [17]
/// (Case Study A). Nodes are cell pins; message passing runs over four
/// typed arc sets (net/cell arcs, forward/backward) so arrival information
/// can flow along and against the signal direction, as in TimingGCN.
///
/// The model regresses per-pin arrival times from the Phase-0 pin features
/// (capacitances etc.); the golden STA engine provides training labels.
/// `embed()` exposes the last hidden representation — the output manifold Y
/// that CirSTAG consumes.
class TimingGnn {
 public:
  TimingGnn(const circuit::Netlist& netlist, TimingGnnOptions opts = {});

  /// Full-batch Adam training against golden-STA arrival times.
  TrainStats train(const circuit::StaOptions& sta_opts = {});

  /// Per-pin arrival predictions (de-normalized) for raw (unstandardized)
  /// feature matrices — pass perturbed copies of `base_features()`.
  [[nodiscard]] std::vector<double> predict(const linalg::Matrix& raw_features);

  /// Hidden node embeddings for raw features (rows = pins).
  [[nodiscard]] linalg::Matrix embed(const linalg::Matrix& raw_features);

  /// Capture a full forward pass as the baseline for incremental variants.
  /// The snapshot's embedding/prediction are byte-identical to embed() /
  /// predict() on the same features.
  [[nodiscard]] GnnSnapshot snapshot(const linalg::Matrix& raw_features);

  /// Forward a perturbed feature matrix by recomputing only the rows that
  /// differ from `snap` (plus their graph-propagated fanout, with equality
  /// pruning at every layer). Byte-identical to a full embed()/predict() on
  /// `raw_features`; thread-safe (const, no training caches touched).
  [[nodiscard]] GnnIncrementalResult forward_incremental(
      const GnnSnapshot& snap, const linalg::Matrix& raw_features,
      GnnIncrementalStats* stats = nullptr) const;

  /// The unperturbed feature matrix the model was built from.
  [[nodiscard]] const linalg::Matrix& base_features() const { return features_; }

  [[nodiscard]] const circuit::Netlist& netlist() const { return *netlist_; }

  /// --- trained-state export/restore (io/snapshot) -------------------------
  /// The constructor is cheap and deterministic (layer shapes + seeded init
  /// from the netlist); train() is the expensive part. A binary snapshot
  /// therefore stores only the trained state below and restores it onto a
  /// freshly constructed model with the same options — predictions and
  /// embeddings are then bit-identical to the original trained model's.
  [[nodiscard]] const TimingGnnOptions& options() const { return opts_; }
  [[nodiscard]] double target_mean() const { return target_mean_; }
  [[nodiscard]] double target_scale() const { return target_scale_; }
  [[nodiscard]] const Standardizer& feature_scaler() const {
    return feature_scaler_;
  }
  /// Trainable parameters in the fixed serialization order train() hands
  /// them to the optimizer: head first, then the conv stack front to back.
  [[nodiscard]] std::vector<Param*> trainable_params();
  /// Overwrite the trainable parameters (same order and shapes as
  /// trainable_params()), the feature-scaler state, and the target
  /// normalization. Throws std::invalid_argument on any shape mismatch.
  void restore_trained_state(std::span<const linalg::Matrix> params,
                             std::vector<double> scaler_mean,
                             std::vector<double> scaler_inv_std,
                             double target_mean, double target_scale);

 private:
  /// Forward through conv stack; returns (embedding, prediction).
  std::pair<Matrix, Matrix> forward(const Matrix& standardized);

  const circuit::Netlist* netlist_;
  TimingGnnOptions opts_;
  linalg::Matrix features_;
  Standardizer feature_scaler_;
  double target_mean_ = 0.0;
  double target_scale_ = 1.0;

  std::vector<std::unique_ptr<Layer>> conv_stack_;
  std::unique_ptr<Linear> head_;
};

}  // namespace cirstag::gnn
