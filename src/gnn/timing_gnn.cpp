#include "gnn/timing_gnn.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "circuit/views.hpp"
#include "gnn/dag_prop.hpp"
#include "gnn/loss.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace cirstag::gnn {

TimingGnn::TimingGnn(const circuit::Netlist& netlist, TimingGnnOptions opts)
    : netlist_(&netlist), opts_(opts) {
  if (!netlist.finalized())
    throw std::invalid_argument("TimingGnn: netlist must be finalized");
  features_ = circuit::pin_features(netlist);

  const circuit::PinArcs arcs = circuit::pin_arcs(netlist);
  const std::size_t n = netlist.num_pins();
  std::vector<linalg::SparseMatrix> ops;
  ops.push_back(normalized_arc_operator(n, arcs.net_arcs, false));
  ops.push_back(normalized_arc_operator(n, arcs.cell_arcs, false));
  ops.push_back(normalized_arc_operator(n, arcs.net_arcs, true));
  ops.push_back(normalized_arc_operator(n, arcs.cell_arcs, true));

  // Fit the feature scaler up front so embed()/predict() work on an
  // untrained model (used for runtime benchmarking of the pipeline).
  feature_scaler_.fit(features_);

  linalg::Rng rng(opts_.seed);
  std::size_t in_dim = features_.cols();
  for (std::size_t l = 0; l < opts_.num_conv_layers; ++l) {
    conv_stack_.push_back(std::make_unique<TypedGraphConv>(
        ops, in_dim, opts_.hidden_dim, rng));
    conv_stack_.push_back(std::make_unique<ReLU>());
    in_dim = opts_.hidden_dim;
  }
  if (opts_.use_dag_propagation) {
    conv_stack_.push_back(
        std::make_unique<DagPropagation>(netlist, in_dim, opts_.hidden_dim, rng));
  }
  head_ = std::make_unique<Linear>(opts_.hidden_dim, 1, rng);
}

std::pair<Matrix, Matrix> TimingGnn::forward(const Matrix& standardized) {
  Matrix h = standardized;
  for (auto& layer : conv_stack_) h = layer->forward(h);
  Matrix pred = head_->forward(h);
  return {std::move(h), std::move(pred)};
}

TrainStats TimingGnn::train(const circuit::StaOptions& sta_opts) {
  const obs::TraceSpan trace_span("gnn.train", "gnn");
  static const obs::Counter train_runs("gnn.train_runs");
  static const obs::Counter train_epochs("gnn.train_epochs");
  train_runs.add();
  train_epochs.add(opts_.epochs);
  const circuit::TimingReport golden = circuit::run_sta(*netlist_, sta_opts);

  // Normalize targets to zero-mean/unit-std for conditioning.
  target_mean_ = util::mean(golden.arrival);
  const double sd = util::stdev(golden.arrival);
  target_scale_ = sd > 1e-12 ? sd : 1.0;
  std::vector<double> target(golden.arrival.size());
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] = (golden.arrival[i] - target_mean_) / target_scale_;

  const Matrix x = feature_scaler_.transform(features_);

  std::vector<Param*> params = trainable_params();
  AdamOptions aopts;
  aopts.learning_rate = opts_.learning_rate;
  aopts.grad_clip = opts_.grad_clip;
  Adam optimizer(params, aopts);

  TrainStats stats;
  stats.loss_history.reserve(opts_.epochs);
  for (std::size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    auto [h, pred] = forward(x);
    const LossResult loss = mse_loss(pred, target);
    stats.loss_history.push_back(loss.value);

    Matrix grad = head_->backward(loss.grad);
    for (std::size_t i = conv_stack_.size(); i-- > 0;)
      grad = conv_stack_[i]->backward(grad);
    optimizer.step();

    if (opts_.verbose && epoch % 50 == 0)
      obs::logf_info("timing-gnn", "epoch %zu loss %.6f", epoch, loss.value);
  }

  const std::vector<double> pred = predict(features_);
  stats.r2 = util::r2_score(golden.arrival, pred);
  stats.final_loss = stats.loss_history.empty() ? 0.0
                                                : stats.loss_history.back();
  return stats;
}

std::vector<double> TimingGnn::predict(const linalg::Matrix& raw_features) {
  auto [h, pred] = forward(feature_scaler_.transform(raw_features));
  std::vector<double> out(pred.rows());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = pred(i, 0) * target_scale_ + target_mean_;
  return out;
}

GnnSnapshot TimingGnn::snapshot(const linalg::Matrix& raw_features) {
  const obs::TraceSpan trace_span("gnn.snapshot", "gnn");
  GnnSnapshot snap;
  snap.std_features = feature_scaler_.transform(raw_features);
  Matrix h = snap.std_features;
  snap.layer_outputs.reserve(conv_stack_.size());
  for (auto& layer : conv_stack_) {
    h = layer->forward(h);
    snap.layer_outputs.push_back(h);
  }
  snap.head_output = head_->forward(h);
  snap.prediction.resize(snap.head_output.rows());
  for (std::size_t i = 0; i < snap.prediction.size(); ++i)
    snap.prediction[i] = snap.head_output(i, 0) * target_scale_ + target_mean_;
  return snap;
}

GnnIncrementalResult TimingGnn::forward_incremental(
    const GnnSnapshot& snap, const linalg::Matrix& raw_features,
    GnnIncrementalStats* stats) const {
  if (snap.layer_outputs.size() != conv_stack_.size())
    throw std::invalid_argument(
        "TimingGnn::forward_incremental: snapshot/model layer mismatch");
  const obs::TraceSpan trace_span("gnn.incremental_forward", "gnn");
  static const obs::Counter inc_forwards("gnn.incremental_forwards");
  static const obs::Counter inc_rows("gnn.incremental_rows");
  inc_forwards.add();

  GnnIncrementalStats local;
  Matrix x = feature_scaler_.transform(raw_features);
  if (x.rows() != snap.std_features.rows() ||
      x.cols() != snap.std_features.cols())
    throw std::invalid_argument(
        "TimingGnn::forward_incremental: feature shape mismatch");

  // Seed: feature rows that differ from the snapshot (the transform is
  // row-local, so identical raw rows standardize to identical rows).
  std::vector<std::uint32_t> dirty;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto a = x.row(r);
    const auto bse = snap.std_features.row(r);
    for (std::size_t c = 0; c < a.size(); ++c)
      if (a[c] != bse[c]) {
        dirty.push_back(static_cast<std::uint32_t>(r));
        break;
      }
  }
  local.dirty_input_rows = dirty.size();
  local.total_rows = x.rows() * (conv_stack_.size() + 1);

  Matrix cur = std::move(x);
  for (std::size_t i = 0; i < conv_stack_.size(); ++i) {
    Matrix y = snap.layer_outputs[i];
    std::vector<std::uint32_t> dirty_out;
    local.recomputed_rows +=
        conv_stack_[i]->forward_incremental(cur, y, dirty, dirty_out);
    cur = std::move(y);
    dirty = std::move(dirty_out);
  }

  GnnIncrementalResult out;

  // Head: de-normalize only the rows whose hidden state moved.
  Matrix head = snap.head_output;
  std::vector<std::uint32_t> head_dirty;
  local.recomputed_rows +=
      head_->forward_incremental(cur, head, dirty, head_dirty);
  out.prediction = snap.prediction;
  for (const std::uint32_t r : head_dirty)
    out.prediction[r] = head(r, 0) * target_scale_ + target_mean_;
  out.embedding = std::move(cur);

  inc_rows.add(local.recomputed_rows);
  if (stats) *stats = local;
  return out;
}

std::vector<Param*> TimingGnn::trainable_params() {
  std::vector<Param*> params = head_->params();
  for (auto& layer : conv_stack_)
    for (Param* p : layer->params()) params.push_back(p);
  return params;
}

void TimingGnn::restore_trained_state(std::span<const linalg::Matrix> params,
                                      std::vector<double> scaler_mean,
                                      std::vector<double> scaler_inv_std,
                                      double target_mean, double target_scale) {
  const std::vector<Param*> slots = trainable_params();
  if (params.size() != slots.size())
    throw std::invalid_argument(
        "TimingGnn::restore_trained_state: parameter count mismatch");
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (params[i].rows() != slots[i]->value.rows() ||
        params[i].cols() != slots[i]->value.cols())
      throw std::invalid_argument(
          "TimingGnn::restore_trained_state: parameter shape mismatch");
  }
  if (scaler_mean.size() != features_.cols())
    throw std::invalid_argument(
        "TimingGnn::restore_trained_state: scaler dimension mismatch");
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i]->value = params[i];
  feature_scaler_.restore(std::move(scaler_mean), std::move(scaler_inv_std));
  target_mean_ = target_mean;
  target_scale_ = target_scale;
}

linalg::Matrix TimingGnn::embed(const linalg::Matrix& raw_features) {
  const obs::TraceSpan trace_span("gnn.embed", "gnn");
  auto [h, pred] = forward(feature_scaler_.transform(raw_features));
  (void)pred;
  return std::move(h);
}

}  // namespace cirstag::gnn
