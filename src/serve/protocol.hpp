// Line-delimited wire protocol of the socket server (no external deps).
//
// Each request is one line, in either flavour; the response mirrors the
// flavour of the request:
//
//   TSV:   <id>['@'<deadline_ms>]['#'<model>] '\t' <token> (' ' <token>)*
//      ->  <id> '\t' <STATUS> '\t' <tag> (' ' <tag>)*
//   JSON:  {"id": "...", "tokens": [...], "deadline_ms": 50, "model": "x"}
//      ->  {"id":"...","status":"ok","tags":["B","I","O"]}
//
// The optional model selector is the tenant dimension (DESIGN.md §14): it
// names which resident model generation decodes the request. "#MODEL"
// sets a connection-scoped default for requests that carry none:
//
//   #MODEL jnlpba   every later bare request decodes under model "jnlpba"
//   #MODEL off      drop the default (bare "#MODEL" does the same)
//
// Like "#DECODE", a well-formed "#MODEL" line produces no reply. Requests
// with no selector anywhere keep the pre-tenancy semantics bit-for-bit:
// they resolve to the registry's "default" alias, so model-less clients
// never see the tenant dimension at all. An unknown name answers with the
// structured UNKNOWN_MODEL status; a tenant past its token-bucket quota
// answers QUOTA_EXCEEDED. Neither is retryable or triggers failover. Tag
// names in responses come from the *serving model's* label inventory, so
// a multi-entity model answers "B-protein I-protein O ..." while
// single-type models keep the legacy "B I O" spelling.
//
// A line with no tab and not starting with '{' is treated as bare
// space-separated tokens with id "-" (netcat-friendly). Control lines:
// "#QUIT" closes the connection; "#METRICS" scrapes the server:
//
//   #METRICS JSON   one JSON line of the full observability snapshot
//                   (serve.* + process-global + fault.* counters); a
//                   bare "#METRICS" answers the same
//   #METRICS TSV    same snapshot as "name<TAB>value" lines, then "#END"
//   #METRICS PROM   same snapshot in Prometheus text format, then "# EOF"
//
// "#DECODE" selects the decode options (DESIGN.md §10) for every later
// request on the connection:
//
//   #DECODE quantized=int16
//   #DECODE off
//
// quantized= (off | int16 | int8) is the only key. "#DECODE off" (or a
// bare "#DECODE") drops the connection override and returns to the
// server's configured options. Well-formed lines produce no reply —
// pipelined clients keep their 1:1 request/response accounting — while
// malformed ones answer with the usual parse-error line. The removed
// pruning keys (beam=, threshold=) answer a parse error naming their
// removal.
//
// Non-OK statuses put the error detail where the tags would go. The JSON
// reader handles exactly this shape (string escapes included) — it is a
// protocol parser, not a general JSON library.
//
// Admin channel — ONE parse path, one verb table. Every administrative
// line funnels into LineKind::kAdmin and is dispatched by the serving
// tier (TagService::admin). "#REPLICA <verb> ..." is the only spelling
// (replies are free-form lines terminated by "#END"); the retired
// "#LEARN <args>" answers a parse error naming "#REPLICA learn". The verbs
// the router tier implements:
//
//   verb                            | effect
//   --------------------------------+---------------------------------
//   status                          | per-replica health/fingerprint/
//                                   | counters + cache line
//   kill <i>                        | drain replica i, then reject
//   revive <i>                      | fresh worker pool on replica i
//   swap <i> <path>                 | hot-swap replica i's model
//   model add <name> <path>         | load + register a tenant model
//   model swap <name> <path>        | hot-swap a tenant's generation
//   model drop <name>               | unload a tenant model
//   model list                      | resident models, one per line
//   quota <name> <rate> <burst>     | set a tenant's token bucket
//   quota <name> off                | remove the tenant's quota
//   learn text <tokens...>          | absorb one sentence (DESIGN.md §12)
//   learn file <path>               | absorb every sentence line of a file
//   learn status                    | learner/WAL/generation state
//   learn rollback                  | restore the previous generation
//
// Admin payloads larger than kMaxAdminLineBytes are rejected at parse
// time with a structured error (see below).
//
// Fault-tolerance fields: the optional per-request deadline (an '@'
// suffix on the TSV id, a "deadline_ms" member in JSON) bounds how long
// the request may wait before the service sheds it with status
// DEADLINE_EXCEEDED. Responses decoded in degraded mode (plain Viterbi
// fallback under overload) carry "OK*" as the TSV status and
// "degraded":true in JSON — same tags shape, lower decode tier.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/crf/decode_options.hpp"
#include "src/serve/types.hpp"

namespace graphner::serve {

/// Upper bound on the payload of one admin control line ("#REPLICA ...").
/// Admin lines are parsed and echoed into logs and the WAL;
/// an unbounded one would let a single connection balloon the learn
/// journal (or the log) with one write. Oversized lines are rejected at
/// parse time with a structured error, before any admin dispatch runs.
inline constexpr std::size_t kMaxAdminLineBytes = 64 * 1024;

struct Request {
  std::string id;
  std::vector<std::string> tokens;
  bool json = false;  ///< respond in the request's flavour
  /// Per-request deadline in milliseconds; 0 = use the service default.
  long deadline_ms = 0;
  /// Tenant/model selector ('#<name>' TSV id suffix, "model" JSON member).
  /// Empty = the connection's "#MODEL" default, else the server default.
  std::string model;
  /// The canonical '\x1f'-joined sentence key over the normalized tokens,
  /// computed exactly once here at ingestion. Threaded through
  /// SubmitOptions::key so coalescing, the router cache and failover
  /// resubmits all reuse it instead of re-normalizing.
  std::string key;
};

enum class LineKind {
  kRequest,    ///< `request` is filled
  kMetrics,    ///< "#METRICS [JSON|TSV|PROM]" — `metrics_flavour` is filled
  kDecode,     ///< "#DECODE ..." — `decode` is filled (nullopt = reset)
  kModel,      ///< "#MODEL ..." — `model` is filled (empty = reset)
  kAdmin,      ///< "#REPLICA ..." — `admin` holds the words
  kQuit,       ///< "#QUIT"
  kEmpty,      ///< blank line — ignore
  kMalformed,  ///< `error` is filled
};

/// Which serialization a "#METRICS" control line asked for.
enum class MetricsFlavour {
  kJson,    ///< full observability snapshot, one JSON line (also bare)
  kTsv,     ///< full snapshot as name<TAB>value lines, terminated "#END"
  kProm,    ///< full snapshot as Prometheus text, terminated "# EOF"
};

struct ParsedLine {
  LineKind kind = LineKind::kMalformed;
  Request request;
  MetricsFlavour metrics_flavour = MetricsFlavour::kJson;
  /// For kDecode: the connection's new decode override, or nullopt for
  /// "#DECODE off" (drop the override, use the server default).
  std::optional<crf::DecodeOptions> decode;
  /// For kModel: the connection's new default model, or empty for
  /// "#MODEL off" (drop the default, use the server default).
  std::string model;
  /// For kAdmin: the words after "#REPLICA" (e.g. "kill 1", "status"),
  /// interpreted by the serving tier (TagService::admin). The reply is
  /// free-form lines terminated by "#END".
  std::string admin;
  std::string error;
};

[[nodiscard]] ParsedLine parse_request_line(const std::string& line);

/// Canonical sentence-text normalization, applied once at protocol
/// ingestion so the TSV and JSON flavours agree byte-for-byte on what a
/// sentence *is*: strips a UTF-8 BOM, maps embedded whitespace (tab, CR,
/// LF, vertical tab, form feed) to spaces, trims, collapses internal runs
/// to a single space. Returns empty when nothing survives (the token is
/// dropped). Both the micro-batcher's duplicate coalescing and the
/// router's cross-request cache key on the normalized form, so the same
/// sentence submitted via either flavour hits the same entry.
[[nodiscard]] std::string normalize_token(std::string token);

/// normalize_token over every token, dropping the ones that normalize to
/// nothing (e.g. a JSON token that was only whitespace).
void normalize_tokens(std::vector<std::string>& tokens);

/// The canonical key for a normalized token sequence: tokens joined with
/// the unit separator '\x1f' (never produced by tokenization). This is
/// the coalescing key and the sentence part of the router cache key.
[[nodiscard]] std::string sentence_key(const std::vector<std::string>& tokens);

/// True when `name` is a well-formed model/tenant name: non-empty, only
/// [A-Za-z0-9_.-]. The restricted charset is what lets the '#<model>' TSV
/// id suffix coexist with ids that legitimately contain '#' — a suffix
/// that fails this test is part of the id, not a selector. The router's
/// "model add" admin verb enforces the same rule, so every registrable
/// name is also addressable on the wire.
[[nodiscard]] bool valid_model_name(std::string_view name) noexcept;

/// One response line (no trailing newline), in the request's flavour.
[[nodiscard]] std::string format_response(const Request& request,
                                          const TagResponse& response);

/// Error reply for a line that failed to parse.
[[nodiscard]] std::string format_parse_error(const std::string& error);

/// The status carried by a response line in either flavour ("OK",
/// "OVERLOADED", ... — the degraded marker is stripped, JSON statuses are
/// upper-cased). Empty when the line is not a well-formed response.
[[nodiscard]] std::string response_status(const std::string& line);

/// True when a response line carries a retryable status (OVERLOADED /
/// DEADLINE_EXCEEDED) — the client-side mirror of status_retryable().
[[nodiscard]] bool response_retryable(const std::string& line);

/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace graphner::serve
