// Line-protocol client for graphner_serve.
//
//   graphner_client --port 8765 --input sents.txt --concurrency 4
//       tag a file (one space-tokenized sentence per line); responses are
//       printed to stdout in input order regardless of concurrency
//   graphner_client --port 8765 --metrics
//       fetch the server's metrics JSON
//   graphner_client --port 8765 --admin "kill 1"
//       send a "#REPLICA <cmd>" admin line (graphner_router only) and
//       print the reply up to its #END terminator
//   graphner_client --port 8765 --admin "learn file new-sents.txt"
//       the online-learning verb of a --learn router absorbs the file's
//       sentences
//
// With --concurrency N the lines are striped over N connections, each of
// which pipelines a window of requests — that is what drives the server's
// micro-batcher from a single client process.
//
// The client is fault-tolerant: connects retry with capped exponential
// backoff and jitter, and with --reconnect > 0 a connection that drops
// mid-stream (server restart, injected socket faults) is re-established
// and the unanswered tail of the current window is resent — responses
// arrive in order per connection, so everything already answered stays
// answered exactly once.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/serve/socket_server.hpp"
#include "src/util/cli.hpp"
#include "src/util/fault.hpp"

namespace {

using namespace graphner;

constexpr std::size_t kPipelineWindow = 64;

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("graphner_client", "tagging client for graphner_serve");
  auto host = cli.flag<std::string>("host", "127.0.0.1", "server host");
  auto port = cli.flag<std::uint16_t>("port", 8765, "server port");
  auto input = cli.flag<std::string>("input", "-", "sentence file ('-' = stdin)");
  auto concurrency = cli.flag<std::size_t>("concurrency", 1, "parallel connections");
  auto retries = cli.flag<int>("retries", 20,
                               "connect attempts (exponential backoff from 100 ms)");
  auto reconnect = cli.flag<int>(
      "reconnect", 0, "reconnects allowed per connection when it drops mid-stream");
  auto deadline_ms = cli.flag<long>(
      "deadline-ms", 0, "per-request deadline sent as the '@<ms>' id suffix");
  auto model = cli.flag<std::string>(
      "model", "",
      "tenant/model selector sent as the '#<name>' id suffix (empty = the "
      "server's default model)");
  auto metrics = cli.toggle("metrics", "fetch the server metrics JSON and exit");
  auto admin = cli.flag<std::string>(
      "admin", "",
      "send '#REPLICA <cmd>' (kill/revive/swap/status/learn) and print the "
      "reply");
  auto metrics_format = cli.flag<std::string>(
      "metrics-format", "json", "with --metrics: json | tsv | prom");
  auto quantized = cli.flag<std::string>(
      "quantized", "", "server-side emission quantization: off | int16 | int8");
  cli.parse(argc, argv);

  // Connection-scoped decode override, sent as a "#DECODE" control line
  // right after every (re)connect. It draws no reply, so the pipelined
  // request/response accounting below is untouched.
  const std::string decode_line =
      quantized->empty() ? std::string{} : "#DECODE quantized=" + *quantized;

  util::BackoffPolicy connect_policy;
  connect_policy.initial = std::chrono::milliseconds(100);
  connect_policy.max_retries = *retries;

  try {
    if (!admin->empty()) {
      // Admin replies are multi-line, terminated by "#END" (same framing
      // as "#METRICS TSV"); print everything including the terminator.
      serve::ClientConnection connection;
      connection.connect(*host, *port, connect_policy);
      connection.send_line("#REPLICA " + *admin);
      std::string line;
      do {
        if (!connection.recv_line(line))
          throw std::runtime_error("server closed before answering #REPLICA " +
                                   *admin);
        std::cout << line << '\n';
      } while (line != "#END");
      return 0;
    }

    if (*metrics) {
      // JSON answers with exactly one line; the multi-line flavours end
      // with a terminator line (#END for TSV, "# EOF" for Prometheus) which
      // we print too, so output is diffable against what the wire carried.
      std::string command = "#METRICS JSON";
      std::string terminator;
      if (*metrics_format == "tsv") {
        command = "#METRICS TSV";
        terminator = "#END";
      } else if (*metrics_format == "prom") {
        command = "#METRICS PROM";
        terminator = "# EOF";
      } else if (*metrics_format != "json") {
        throw std::runtime_error("unknown --metrics-format '" + *metrics_format +
                                 "' (expected json, tsv or prom)");
      }
      serve::ClientConnection connection;
      connection.connect(*host, *port, connect_policy);
      connection.send_line(command);
      std::string line;
      do {
        if (!connection.recv_line(line))
          throw std::runtime_error("server closed before answering " + command);
        std::cout << line << '\n';
      } while (!terminator.empty() && line != terminator);
      return 0;
    }

    std::vector<std::string> lines;
    if (*input == "-") {
      lines = read_lines(std::cin);
    } else {
      std::ifstream file(*input);
      if (!file) throw std::runtime_error("cannot read " + *input);
      lines = read_lines(file);
    }

    const std::size_t connections = std::max<std::size_t>(1, *concurrency);
    std::vector<std::string> responses(lines.size());
    std::vector<std::thread> threads;
    std::vector<std::string> errors(connections);
    threads.reserve(connections);

    for (std::size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::ClientConnection connection;
          connection.connect(*host, *port, connect_policy);
          if (!decode_line.empty()) connection.send_line(decode_line);
          int reconnects_left = *reconnect;
          std::string suffix =
              *deadline_ms > 0 ? "@" + std::to_string(*deadline_ms) : "";
          if (!model->empty()) suffix += "#" + *model;  // model split is outermost
          // This connection owns lines c, c + connections, c + 2*connections...
          std::vector<std::size_t> mine;
          for (std::size_t i = c; i < lines.size(); i += connections)
            mine.push_back(i);
          // Pipelined windows: write up to kPipelineWindow requests ahead,
          // then read their responses (bounded so neither socket buffer
          // can fill up in both directions at once).
          for (std::size_t begin = 0; begin < mine.size();
               begin += kPipelineWindow) {
            const std::size_t end =
                std::min(begin + kPipelineWindow, mine.size());
            // `done` counts responses received for this window; on a drop,
            // reconnect and resend only the unanswered tail (per-connection
            // responses are ordered, so [begin, done) is settled).
            std::size_t done = begin;
            while (done < end) {
              try {
                for (std::size_t k = done; k < end; ++k)
                  connection.send_line("line" + std::to_string(mine[k]) +
                                       suffix + "\t" + lines[mine[k]]);
                while (done < end) {
                  std::string response;
                  if (!connection.recv_line(response))
                    throw std::runtime_error("connection closed mid-stream");
                  responses[mine[done]] = std::move(response);
                  ++done;
                }
              } catch (const std::exception&) {
                if (reconnects_left <= 0) throw;
                --reconnects_left;
                connection.connect(*host, *port, connect_policy);
                // The override is connection state — re-assert it before
                // resending the unanswered tail.
                if (!decode_line.empty()) connection.send_line(decode_line);
              }
            }
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& error : errors)
      if (!error.empty()) throw std::runtime_error(error);

    for (const auto& response : responses) std::cout << response << '\n';
  } catch (const std::exception& e) {
    std::cerr << "graphner_client: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
