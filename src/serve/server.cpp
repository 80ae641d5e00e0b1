#include "serve/server.hpp"

#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/request.hpp"
#include "serve/json.hpp"

namespace cirstag::serve {

namespace {

/// Poll granularity of the accept loop and of idle keep-alive connections:
/// the longest a stop request waits before being observed.
constexpr int kStopTickMs = 200;

}  // namespace

Server::Server(ServerOptions options)
    : options_(options), service_(options.scheduler) {}

Server::~Server() {
  request_stop();
  drain_and_join();
}

bool Server::start(std::string& error) {
  listener_ = TcpListener::open(options_.port);
  if (!listener_.valid()) {
    error = listener_.error();
    return false;
  }
  return true;
}

void Server::serve_forever(const std::function<bool()>& should_stop) {
  static obs::Counter accepted("serve.connections");
  obs::logf_info("serve", "listening on 127.0.0.1:%u",
                 static_cast<unsigned>(port()));
  while (!stop_.load(std::memory_order_relaxed)) {
    if (should_stop && should_stop()) break;
    std::optional<TcpSocket> socket = listener_.accept(kStopTickMs);
    if (!socket.has_value()) continue;
    accepted.add();
    std::lock_guard<std::mutex> lock(threads_mutex_);
    // One thread per connection; clients are few (bench workers, curl) and
    // the threads idle in poll() between requests. Joined at drain.
    threads_.emplace_back(&Server::connection_loop, this, std::move(*socket));
  }
  drain_and_join();
}

void Server::drain_and_join() {
  stop_.store(true, std::memory_order_relaxed);
  listener_.close();
  obs::logf_info("serve", "draining: %zu queued requests",
                 service_.scheduler.queue_depth());
  // Finish everything already admitted; connection threads waiting on
  // futures get their responses, late submissions are answered 503.
  service_.scheduler.drain();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  if (!threads.empty()) obs::logf_info("serve", "drain complete");
}

void Server::connection_loop(TcpSocket socket) {
  static obs::Counter http_errors("serve.http_errors");
  HttpReader reader(socket, options_.limits);
  while (true) {
    HttpReadResult read = reader.read_request(kStopTickMs);
    if (read.status == HttpReadResult::Status::timeout) {
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }
    if (read.status == HttpReadResult::Status::closed ||
        read.status == HttpReadResult::Status::io_error)
      break;
    if (read.status != HttpReadResult::Status::ok) {
      // Malformed / oversized: answer with the reader's suggested status
      // and close — framing may be lost, so the connection cannot continue.
      http_errors.add();
      (void)socket.write_all(format_http_response(
          read.error_code == 0 ? 400 : read.error_code, "application/json",
          error_body(read.error_detail), /*keep_alive=*/false));
      break;
    }

    Dispatch dispatch = dispatch_request(service_, read.request);
    const JobResponse response = dispatch.immediate
                                     ? std::move(dispatch.response)
                                     : dispatch.future.get();
    const bool keep_alive =
        read.request.keep_alive() && !stop_.load(std::memory_order_relaxed);
    // The trace ID rides in a header, not the body: response bodies stay
    // byte-identical to the in-process path (which the tests gate on).
    std::vector<std::pair<std::string, std::string>> extra_headers;
    if (dispatch.trace)
      extra_headers.emplace_back("X-Trace-Id", dispatch.trace->id_hex());
    if (!socket.write_all(format_http_response(response.status,
                                               response.content_type,
                                               response.body, keep_alive,
                                               extra_headers)))
      break;
    if (!keep_alive) break;
  }
}

}  // namespace cirstag::serve
