#include "serve/server.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace cf::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

ServerConfig sanitized(ServerConfig config) {
  if (config.workers == 0) config.workers = 1;
  // threads_per_worker == 0 is meaningful (cost-model auto) and is
  // resolved in the Server constructor once the network is known.
  if (config.max_batch == 0) config.max_batch = 1;
  if (config.max_delay_seconds < 0.0) config.max_delay_seconds = 0.0;
  if (config.queue_capacity == 0) config.queue_capacity = 1;
  return config;
}

}  // namespace

// --- BatchQueue ------------------------------------------------------

void Server::BatchQueue::push(Batch&& batch) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) return;  // drained shutdown never reaches here
    items_.push_back(std::move(batch));
  }
  not_empty_.notify_one();
}

bool Server::BatchQueue::pop(Batch* out) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
  }
  not_full_.notify_one();
  return true;
}

void Server::BatchQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

// --- Server ----------------------------------------------------------

Server::Server(std::shared_ptr<const dnn::Network> network,
               ServerConfig config)
    : network_(std::move(network)),
      config_(sanitized(std::move(config))),
      queue_(config_.queue_capacity,
             &obs::Registry::global().gauge(config_.metric_prefix +
                                            "/queue_depth")),
      batch_queue_(config_.workers) {
  if (network_ == nullptr || !network_->finalized()) {
    throw std::invalid_argument(
        "serve::Server: requires a finalized Network");
  }
  if (!network_->precision_prepared(config_.precision)) {
    throw std::invalid_argument(
        std::string("serve::Server: network not prepared for ") +
        std::string(dnn::to_string(config_.precision)) +
        " (call prepare_inference_precision before constructing)");
  }
  if (config_.threads_per_worker == 0) {
    // Cost-model auto mode (DESIGN.md §2.6): split the machine's
    // hardware-thread budget across the worker streams and take the
    // model's per-layer grains. Resolved here, before any worker thread
    // starts, so worker_loop sees a concrete thread count.
    const dnn::CostModel cost_model(*network_);
    intraop_plan_ = cost_model.choose(
        runtime::ThreadPool::default_num_threads(), config_.workers);
    config_.threads_per_worker = intraop_plan_.threads_per_stream;
    intraop_auto_ = true;
  }
  auto& reg = obs::Registry::global();
  // Each server instance measures from zero, like a Pipeline does for
  // its metric_prefix.
  reg.reset_prefix(config_.metric_prefix + "/");
  accepted_ = &reg.counter(config_.metric_prefix + "/accepted");
  rejected_ = &reg.counter(config_.metric_prefix + "/rejected");
  completed_ = &reg.counter(config_.metric_prefix + "/completed");
  batches_ = &reg.counter(config_.metric_prefix + "/batches");
  batch_size_gauge_ = &reg.gauge(config_.metric_prefix + "/batch_size");
  batch_fill_stat_ = &reg.stat(config_.metric_prefix + "/batch_fill");
  queue_wait_stat_ = &reg.stat(config_.metric_prefix + "/queue_wait");
  compute_stat_ = &reg.stat(config_.metric_prefix + "/compute");
  latency_hist_ = &reg.histogram(config_.metric_prefix + "/latency");
  reg.gauge(config_.metric_prefix + "/workers")
      .set(static_cast<double>(config_.workers));
  reg.gauge(config_.metric_prefix + "/threads_per_worker")
      .set(static_cast<double>(config_.threads_per_worker));
  reg.gauge(config_.metric_prefix + "/precision")
      .set(static_cast<double>(config_.precision));

  former_ = std::thread(&Server::former_loop, this);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back(&Server::worker_loop, this, i);
  }
}

Server::~Server() { shutdown(); }

SubmitStatus Server::submit(tensor::Tensor input,
                            std::future<InferenceResult>* result) {
  if (input.shape() != network_->input_shape()) {
    throw std::invalid_argument("serve::Server::submit: input shape " +
                                input.shape().to_string() + ", expected " +
                                network_->input_shape().to_string());
  }
  Request request;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  request.input = std::move(input);
  request.submit_time = Clock::now();
  std::future<InferenceResult> future = request.promise.get_future();

  const SubmitStatus status = queue_.try_push(std::move(request));
  if (status == SubmitStatus::kAccepted) {
    accepted_->add();
    if (result != nullptr) *result = std::move(future);
  } else if (status == SubmitStatus::kOverloaded) {
    rejected_->add();
  }
  return status;
}

void Server::former_loop() {
  for (;;) {
    // Idle until traffic arrives (or the queue closes and drains).
    Request first;
    if (queue_.pop(&first) == RequestQueue::PopStatus::kClosed) break;

    Batch batch;
    batch.id = next_batch_id_++;
    batch.requests.reserve(config_.max_batch);
    batch.requests.push_back(std::move(first));
    {
      // The span covers forming only, not the idle wait above.
      CF_TRACE_SCOPE("serve/form", "serve");
      const Clock::time_point deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 config_.max_delay_seconds));
      while (batch.requests.size() < config_.max_batch) {
        Request request;
        if (queue_.pop(&request, deadline) !=
            RequestQueue::PopStatus::kItem) {
          break;  // deadline flush, or closed-and-drained flush
        }
        batch.requests.push_back(std::move(request));
      }
    }
    batch_queue_.push(std::move(batch));
  }
}

void Server::worker_loop(std::size_t worker_index) {
  // Per-stream state, built once: the lean forward-only context plus a
  // private worker pool. The Network is shared and read-only.
  dnn::ExecContext ctx =
      intraop_auto_
          ? network_->make_context(dnn::ExecMode::kInference,
                                   config_.precision, intraop_plan_)
          : network_->make_context(dnn::ExecMode::kInference,
                                   config_.precision);
  runtime::ThreadPool pool(config_.threads_per_worker);

  Batch batch;
  while (batch_queue_.pop(&batch)) {
    CF_TRACE_SCOPE("serve/batch", "serve");
    const Clock::time_point dispatch = Clock::now();
    const std::size_t batch_size = batch.requests.size();
    batches_->add();
    batch_size_gauge_->set(static_cast<double>(batch_size));
    batch_fill_stat_->add(static_cast<double>(batch_size));

    for (Request& request : batch.requests) {
      InferenceResult result;
      result.request_id = request.id;
      result.batch_id = batch.id;
      result.batch_size = batch_size;
      result.worker = worker_index;
      result.queue_seconds =
          seconds_between(request.submit_time, dispatch);
      try {
        const runtime::Stopwatch compute_watch;
        {
          CF_TRACE_SCOPE("serve/infer", "serve");
          // fp32 inference forward reads request.input in place
          // (no staging copy — DESIGN.md §2.7); the request owns its
          // tensor for the whole call, so the aliasing contract holds.
          result.output = ctx.forward(request.input, pool).to_vector();
        }
        result.compute_seconds = compute_watch.elapsed_seconds();
        result.total_seconds =
            seconds_between(request.submit_time, Clock::now());
        queue_wait_stat_->add(result.queue_seconds);
        compute_stat_->add(result.compute_seconds);
        latency_hist_->add(result.total_seconds);
        completed_->add();
        request.promise.set_value(std::move(result));
      } catch (...) {
        request.promise.set_exception(std::current_exception());
      }
    }
  }
}

void Server::shutdown() {
  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (stopped_) return;
  // Stop admission; the former drains whatever was accepted into final
  // (possibly underfull) batches and exits, then the workers drain the
  // batch queue — every accepted request resolves its future.
  queue_.close();
  if (former_.joinable()) former_.join();
  batch_queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  stopped_ = true;
}

}  // namespace cf::serve
