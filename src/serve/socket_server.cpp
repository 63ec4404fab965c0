#include "src/serve/socket_server.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "src/obs/export.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/fault.hpp"
#include "src/util/logging.hpp"

namespace graphner::serve {
namespace {

void send_all(int fd, const std::string& data) {
  // Chaos hook: a peer that vanished mid-write. The handler treats it like
  // any real send failure — drop the connection, never the process.
  if (util::fault_fires("socket.write"))
    throw util::FaultInjectedError("socket.write on fd " + std::to_string(fd));
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed: " + std::string(strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// The response body for one "#METRICS [flavour]" control line. The
/// multi-line flavours end with a terminator line so a client reading a
/// stream knows where the dump stops.
[[nodiscard]] std::string metrics_reply(const TagService& service,
                                        MetricsFlavour flavour) {
  switch (flavour) {
    case MetricsFlavour::kJson:
      return obs::export_json(service.observability_snapshot()) + "\n";
    case MetricsFlavour::kTsv:
      return obs::export_tsv(service.observability_snapshot()) + "\n#END\n";
    case MetricsFlavour::kProm:
      return obs::export_prometheus(service.observability_snapshot()) +
             "# EOF\n";
  }
  return "\n";
}

/// Pop one complete line out of `buffer`, if present.
[[nodiscard]] bool take_line(std::string& buffer, std::string& line) {
  const std::size_t nl = buffer.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buffer, 0, nl);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  buffer.erase(0, nl + 1);
  return true;
}

}  // namespace

SocketServer::SocketServer(TagService& service, SocketServerConfig config)
    : service_(service), config_(config) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(config_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string reason = strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind(port " + std::to_string(config_.port) +
                             "): " + reason);
  }
  if (::listen(fd, config_.backlog) < 0) {
    const std::string reason = strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen(): " + reason);
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  util::log_info("serve: listening on port ", bound_port_);
}

void SocketServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listener = listen_fd_.load(std::memory_order_acquire);
    if (listener < 0) break;  // stop() already closed it
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    // Chaos hook: a transient accept-side failure (ECONNABORTED and kin).
    // The connection is lost; the accept loop must keep serving.
    if (util::fault_fires("socket.accept")) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connections_.push_back(std::move(connection));
    const std::size_t slot = connections_.size() - 1;
    connections_.back()->thread =
        std::thread([this, slot] { handle_connection(slot); });
  }
}

void SocketServer::handle_connection(std::size_t slot) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    fd = connections_[slot]->fd;
  }

  std::string buffer;
  std::string line;
  char chunk[4096];
  // Requests submitted but not yet answered, in arrival order.
  std::deque<std::pair<Request, std::future<TagResponse>>> in_flight;
  // Connection-scoped decode override, set by "#DECODE" lines; nullopt
  // decodes under the service default.
  std::optional<crf::DecodeOptions> conn_decode;
  // Connection-scoped default model, set by "#MODEL" lines; empty resolves
  // to the server's default model (the pre-tenancy behaviour).
  std::string conn_model;
  bool quit = false;

  try {
    while (!quit) {
      // Drain buffered complete lines first: submitting them all before
      // waiting on any future is what lets one connection fill a batch.
      bool want_metrics = false;
      MetricsFlavour metrics_flavour = MetricsFlavour::kJson;
      bool want_admin = false;
      std::string admin_command;
      while (!quit && take_line(buffer, line)) {
        ParsedLine parsed = parse_request_line(line);
        switch (parsed.kind) {
          case LineKind::kRequest: {
            text::Sentence sentence;
            sentence.id = parsed.request.id;
            sentence.tokens = std::move(parsed.request.tokens);
            SubmitOptions options;
            options.deadline =
                std::chrono::milliseconds{parsed.request.deadline_ms};
            options.decode = conn_decode;
            // Per-request selector wins; else the connection's "#MODEL"
            // default; else empty = the server default model.
            options.model = parsed.request.model.empty()
                                ? conn_model
                                : parsed.request.model;
            options.key = std::move(parsed.request.key);
            in_flight.emplace_back(
                std::move(parsed.request),
                service_.submit(std::move(sentence), std::move(options)));
            break;
          }
          case LineKind::kMetrics:
            want_metrics = true;
            metrics_flavour = parsed.metrics_flavour;
            break;
          case LineKind::kDecode:
            // Applies to every later request on this connection; no reply,
            // so pipelined clients keep 1:1 request/response accounting.
            conn_decode = parsed.decode;
            break;
          case LineKind::kModel:
            // Same discipline as #DECODE: connection-scoped, no reply.
            conn_model = parsed.model;
            break;
          case LineKind::kAdmin:
            want_admin = true;
            admin_command = std::move(parsed.admin);
            break;
          case LineKind::kQuit:
            quit = true;
            break;
          case LineKind::kEmpty:
            break;
          case LineKind::kMalformed:
            send_all(fd, format_parse_error(parsed.error) + "\n");
            break;
        }
        // Answer control lines after the requests already pipelined.
        if (want_metrics || want_admin) break;
      }

      // Answer everything submitted so far, in order.
      while (!in_flight.empty()) {
        auto& [request, future] = in_flight.front();
        send_all(fd, format_response(request, future.get()) + "\n");
        in_flight.pop_front();
      }
      if (want_metrics) send_all(fd, metrics_reply(service_, metrics_flavour));
      if (want_admin) {
        std::string reply = service_.admin(admin_command);
        if (!reply.empty() && reply.back() != '\n') reply += '\n';
        send_all(fd, reply + "#END\n");
      }
      if (quit) break;
      // A "#METRICS" / "#REPLICA" may have left complete lines buffered —
      // handle them before blocking on the socket again.
      if (buffer.find('\n') != std::string::npos) continue;

      // Chaos hook: a read error mid-connection; the handler drops the
      // connection cleanly (in-flight futures above already resolved).
      if (util::fault_fires("socket.read")) break;
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;  // peer closed
      if (buffer.size() + static_cast<std::size_t>(n) > config_.max_line_bytes) {
        send_all(fd, format_parse_error("line exceeds " +
                                        std::to_string(config_.max_line_bytes) +
                                        " bytes") +
                         "\n");
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  } catch (const std::exception& e) {
    util::log_debug("serve: connection dropped: ", e.what());
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_[slot]->fd = -1;  // stop() must not shutdown a recycled fd
}

void SocketServer::stop() {
  if (stopping_.exchange(true)) return;
  const int listener = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);  // wakes the blocked accept()
    ::close(listener);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_)
      if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& connection : connections_)
    if (connection->thread.joinable()) connection->thread.join();
}

// --- ClientConnection ------------------------------------------------------

void ClientConnection::connect(const std::string& host, std::uint16_t port,
                               const util::BackoffPolicy& backoff) {
  close();
  util::Backoff retry(backoff);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
      throw std::runtime_error("socket(): " + std::string(strerror(errno)));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      // Not a dotted quad — resolve the name.
      addrinfo hints{};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      addrinfo* results = nullptr;
      if (::getaddrinfo(host.c_str(), nullptr, &hints, &results) != 0 ||
          results == nullptr) {
        ::close(fd);
        // Resolution failures are not transient server slowness — no retry.
        throw std::runtime_error("cannot resolve host " + host);
      }
      addr.sin_addr =
          reinterpret_cast<sockaddr_in*>(results->ai_addr)->sin_addr;
      ::freeaddrinfo(results);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      fd_ = fd;
      return;
    }
    const std::string reason = strerror(errno);
    ::close(fd);
    if (!retry.can_retry())
      throw ConnectRetriesExhausted(host + ":" + std::to_string(port),
                                    retry.attempts() + 1, reason);
    retry.sleep();  // capped exponential with jitter
  }
}

void ClientConnection::connect(const std::string& host, std::uint16_t port,
                               int retries, int initial_delay_ms) {
  util::BackoffPolicy policy;
  policy.max_retries = retries;
  policy.initial = std::chrono::milliseconds(initial_delay_ms);
  connect(host, port, policy);
}

bool ClientConnection::request_with_retry(const std::string& line,
                                          std::string& response,
                                          const util::BackoffPolicy& backoff) {
  // The request's own deadline bounds the whole retry loop: resending an
  // '@50' request 200 ms after the first send can only be shed as
  // DEADLINE_EXCEEDED again, so once the budget has elapsed the last
  // response is final and the rest of the backoff schedule is skipped.
  long deadline_ms = 0;
  {
    const ParsedLine parsed = parse_request_line(line);
    if (parsed.kind == LineKind::kRequest)
      deadline_ms = parsed.request.deadline_ms;
  }
  const auto give_up_at =
      deadline_ms > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::milliseconds(deadline_ms)
          : std::chrono::steady_clock::time_point::max();
  util::Backoff retry(backoff);
  for (;;) {
    send_line(line);
    if (!recv_line(response)) return false;
    if (!response_retryable(response) || !retry.can_retry() ||
        std::chrono::steady_clock::now() >= give_up_at)
      return true;
    retry.sleep();
  }
}

void ClientConnection::send_line(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("not connected");
  send_all(fd_, line + "\n");
}

bool ClientConnection::recv_line(std::string& line) {
  if (fd_ < 0) return false;
  while (!take_line(buffer_, line)) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

void ClientConnection::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace graphner::serve
