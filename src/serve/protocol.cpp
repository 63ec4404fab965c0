#include "src/serve/protocol.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/util/strings.hpp"

namespace graphner::serve {
namespace {

// --- shape-specific JSON reader -------------------------------------------

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  [[nodiscard]] bool peek_is(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }
};

[[nodiscard]] bool parse_json_string(JsonCursor& cur, std::string& out) {
  if (!cur.consume('"')) return false;
  out.clear();
  while (cur.pos < cur.text.size()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c == '\\') {
      if (cur.pos >= cur.text.size()) return false;
      const char esc = cur.text[cur.pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        default: return false;  // \uXXXX not needed for token text
      }
    } else {
      out.push_back(c);
    }
  }
  return false;  // unterminated
}

[[nodiscard]] bool parse_json_request(const std::string& line, Request& out,
                                      std::string& error) {
  JsonCursor cur{line};
  if (!cur.consume('{')) {
    error = "expected '{'";
    return false;
  }
  bool first = true;
  while (!cur.peek_is('}')) {
    if (!first && !cur.consume(',')) {
      error = "expected ',' between members";
      return false;
    }
    first = false;
    std::string key;
    if (!parse_json_string(cur, key)) {
      error = "expected string key";
      return false;
    }
    if (!cur.consume(':')) {
      error = "expected ':' after key";
      return false;
    }
    if (key == "id") {
      if (!parse_json_string(cur, out.id)) {
        error = "\"id\" must be a string";
        return false;
      }
    } else if (key == "deadline_ms") {
      cur.skip_ws();
      std::size_t digits = 0;
      long value = 0;
      while (cur.pos < cur.text.size() &&
             std::isdigit(static_cast<unsigned char>(cur.text[cur.pos]))) {
        value = value * 10 + (cur.text[cur.pos] - '0');
        ++cur.pos;
        ++digits;
      }
      if (digits == 0) {
        error = "\"deadline_ms\" must be a non-negative integer";
        return false;
      }
      out.deadline_ms = value;
    } else if (key == "model") {
      if (!parse_json_string(cur, out.model)) {
        error = "\"model\" must be a string";
        return false;
      }
      if (!valid_model_name(out.model)) {
        error = "\"model\" must be a name of [A-Za-z0-9_.-]";
        return false;
      }
    } else if (key == "tokens") {
      if (!cur.consume('[')) {
        error = "\"tokens\" must be an array";
        return false;
      }
      out.tokens.clear();
      while (!cur.peek_is(']')) {
        if (!out.tokens.empty() && !cur.consume(',')) {
          error = "expected ',' between tokens";
          return false;
        }
        std::string token;
        if (!parse_json_string(cur, token)) {
          error = "tokens must be strings";
          return false;
        }
        out.tokens.push_back(std::move(token));
      }
      (void)cur.consume(']');
    } else {
      error = "unknown key \"" + key + "\"";
      return false;
    }
  }
  (void)cur.consume('}');
  cur.skip_ws();
  if (cur.pos != line.size()) {
    error = "trailing characters after '}'";
    return false;
  }
  out.json = true;
  if (out.id.empty()) out.id = "-";
  return true;
}

// --------------------------------------------------------------------------

[[nodiscard]] std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) out.push_back(std::move(token));
  return out;
}

/// Tabs/newlines inside an id or error would corrupt the TSV framing.
[[nodiscard]] std::string sanitize_tsv(const std::string& text) {
  std::string out = text;
  for (char& c : out)
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  return out;
}

/// Parse the key=value words of a "#DECODE" line. Returns false (with
/// `error` filled) on anything unrecognized — silently ignoring a typo
/// would leave the connection decoding under the wrong options.
[[nodiscard]] bool parse_decode_args(const std::string& args,
                                     std::optional<crf::DecodeOptions>& out,
                                     std::string& error) {
  if (args.empty() || args == "off" || args == "reset") {
    out.reset();
    return true;
  }
  crf::DecodeOptions options;
  for (const std::string& word : split_tokens(args)) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) {
      error = "expected key=value, got \"" + word + "\"";
      return false;
    }
    const std::string key = word.substr(0, eq);
    if (key == "beam" || key == "threshold") {
      // Removed pruning knobs answer loudly: silently dropping them would
      // leave an old client believing it had asked for a pruned decode.
      error = "DECODE key \"" + key +
              "\" was removed; decode is always exact (use quantized=)";
      return false;
    }
    if (key != "quantized") {
      error = "unknown DECODE key \"" + key + "\" (expected quantized)";
      return false;
    }
    try {
      options.quantization = crf::parse_quantization(word.substr(eq + 1));
    } catch (const std::exception&) {
      error = "bad DECODE value \"" + word + "\"";
      return false;
    }
  }
  out = options;
  return true;
}

/// Split an optional '#<model>' selector suffix off a TSV id (the
/// outermost suffix: "<id>[@ms][#model]"). Only a non-empty suffix of
/// model-name characters counts — see valid_model_name — so ids that
/// legitimately contain '#' still round-trip unchanged.
void split_model_suffix(std::string& id, std::string& model) {
  const std::size_t hash = id.find_last_of('#');
  if (hash == std::string::npos || hash + 1 >= id.size()) return;
  if (!valid_model_name(std::string_view{id}.substr(hash + 1))) return;
  model.assign(id, hash + 1, std::string::npos);
  id.resize(hash);
  if (id.empty()) id = "-";
}

/// Split an optional '@<ms>' deadline suffix off a TSV id. Only a
/// non-empty all-digit suffix counts, so ids that legitimately contain
/// '@' (emails, handles) still round-trip unchanged.
void split_deadline_suffix(std::string& id, long& deadline_ms) {
  const std::size_t at = id.find_last_of('@');
  if (at == std::string::npos || at + 1 >= id.size()) return;
  long value = 0;
  for (std::size_t i = at + 1; i < id.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(id[i]))) return;
    value = value * 10 + (id[i] - '0');
  }
  deadline_ms = value;
  id.resize(at);
  if (id.empty()) id = "-";
}

/// Reject an oversized admin payload with a structured error. Returns
/// true when the line was rejected (out is fully filled).
[[nodiscard]] bool reject_oversized_admin(const std::string& verb,
                                          std::size_t payload_bytes,
                                          ParsedLine& out) {
  if (payload_bytes <= kMaxAdminLineBytes) return false;
  std::ostringstream error;
  error << verb << " line too large: " << payload_bytes
        << " byte(s) exceeds the " << kMaxAdminLineBytes
        << "-byte admin line cap";
  out.kind = LineKind::kMalformed;
  out.error = error.str();
  return true;
}

/// True when `trimmed` is `verb` alone or `verb` followed by a space.
[[nodiscard]] bool starts_with_verb(const std::string& trimmed,
                                    std::string_view verb) {
  return trimmed.compare(0, verb.size(), verb) == 0 &&
         (trimmed.size() == verb.size() || trimmed[verb.size()] == ' ');
}

/// Parse a "#REPLICA <verb> ..." line: the one admin spelling (see the verb
/// table in protocol.hpp). Out is fully filled, kAdmin or kMalformed.
void parse_admin_line(const std::string& trimmed, ParsedLine& out) {
  constexpr std::string_view kVerb = "#REPLICA";
  const std::string args{util::trim(trimmed.substr(kVerb.size()))};
  if (reject_oversized_admin(std::string{kVerb}, args.size(), out)) return;
  if (args.empty()) {
    out.kind = LineKind::kMalformed;
    out.error =
        "#REPLICA needs a command (kill/revive/swap/status/model/quota/learn)";
    return;
  }
  out.admin = args;
  out.kind = LineKind::kAdmin;
}

}  // namespace

ParsedLine parse_request_line(const std::string& line) {
  ParsedLine out;
  const std::string trimmed{util::trim(line)};
  if (trimmed.empty()) {
    out.kind = LineKind::kEmpty;
    return out;
  }
  if (trimmed == "#METRICS" || trimmed.rfind("#METRICS ", 0) == 0) {
    const std::string flavour{util::trim(trimmed.substr(8))};
    if (flavour.empty() || flavour == "JSON")
      out.metrics_flavour = MetricsFlavour::kJson;
    else if (flavour == "TSV")
      out.metrics_flavour = MetricsFlavour::kTsv;
    else if (flavour == "PROM")
      out.metrics_flavour = MetricsFlavour::kProm;
    else {
      out.kind = LineKind::kMalformed;
      out.error = "unknown METRICS flavour \"" + flavour +
                  "\" (expected JSON, TSV or PROM)";
      return out;
    }
    out.kind = LineKind::kMetrics;
    return out;
  }
  if (trimmed == "#DECODE" || trimmed.rfind("#DECODE ", 0) == 0) {
    const std::string args{util::trim(trimmed.substr(7))};
    if (parse_decode_args(args, out.decode, out.error))
      out.kind = LineKind::kDecode;
    else
      out.kind = LineKind::kMalformed;
    return out;
  }
  if (trimmed == "#MODEL" || trimmed.rfind("#MODEL ", 0) == 0) {
    // Connection-scoped default model, the "#DECODE" of the tenant
    // dimension: applies to every later request that carries no selector
    // of its own; no reply on well-formed lines.
    const std::string name{util::trim(trimmed.substr(6))};
    if (name.empty() || name == "off" || name == "reset") {
      out.kind = LineKind::kModel;  // out.model stays empty = reset
    } else if (valid_model_name(name)) {
      out.model = name;
      out.kind = LineKind::kModel;
    } else {
      out.kind = LineKind::kMalformed;
      out.error = "bad MODEL name \"" + name + "\" (expected [A-Za-z0-9_.-])";
    }
    return out;
  }
  if (starts_with_verb(trimmed, "#REPLICA")) {
    parse_admin_line(trimmed, out);
    return out;
  }
  if (starts_with_verb(trimmed, "#LEARN")) {
    // The retired spelling must not fall through to bare-token tagging.
    out.kind = LineKind::kMalformed;
    out.error = "#LEARN was removed; send \"#REPLICA learn <args>\" instead";
    return out;
  }
  if (trimmed == "#QUIT") {
    out.kind = LineKind::kQuit;
    return out;
  }
  if (trimmed.front() == '{') {
    if (!parse_json_request(trimmed, out.request, out.error)) {
      out.kind = LineKind::kMalformed;
      return out;
    }
    out.kind = LineKind::kRequest;
  } else {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      out.request.id = "-";
      out.request.tokens = split_tokens(trimmed);
    } else {
      out.request.id = std::string{util::trim(line.substr(0, tab))};
      // Suffix order mirrors the wire shape "<id>[@ms][#model]": the
      // selector is outermost, the deadline inside it.
      split_model_suffix(out.request.id, out.request.model);
      split_deadline_suffix(out.request.id, out.request.deadline_ms);
      if (out.request.id.empty()) out.request.id = "-";
      out.request.tokens = split_tokens(line.substr(tab + 1));
    }
    out.kind = LineKind::kRequest;
  }
  // Both flavours converge on the same canonical token text here, so
  // everything keyed on the sentence downstream (coalescing, the router
  // cache) sees one spelling per sentence regardless of transport. The
  // key is derived here, once, and threaded through SubmitOptions::key —
  // no later tier re-normalizes or re-joins the tokens.
  normalize_tokens(out.request.tokens);
  out.request.key = sentence_key(out.request.tokens);
  return out;
}

bool valid_model_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string normalize_token(std::string token) {
  static constexpr std::string_view kBom = "\xEF\xBB\xBF";
  if (token.rfind(kBom, 0) == 0) token.erase(0, kBom.size());
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    const bool ws = c == ' ' || c == '\t' || c == '\r' || c == '\n' ||
                    c == '\v' || c == '\f';
    if (ws) {
      if (!out.empty() && out.back() != ' ') out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

void normalize_tokens(std::vector<std::string>& tokens) {
  std::size_t kept = 0;
  for (std::string& token : tokens) {
    std::string normalized = normalize_token(std::move(token));
    if (!normalized.empty()) tokens[kept++] = std::move(normalized);
  }
  tokens.resize(kept);
}

std::string sentence_key(const std::vector<std::string>& tokens) {
  std::string key;
  for (const auto& token : tokens) {
    key += token;
    key += '\x1f';  // unit separator: never produced by tokenization
  }
  return key;
}

std::string format_response(const Request& request, const TagResponse& response) {
  // Tag names come from the label inventory of the model that decoded the
  // request (multi-entity models spell "B-protein" etc.); responses with
  // no carrier fall back to the legacy single-type set, whose names are
  // byte-identical to the old hard-coded "B"/"I"/"O".
  const text::LabelSet& labels =
      response.labels ? *response.labels : text::LabelSet::single();
  std::ostringstream out;
  if (request.json) {
    out << "{\"id\":\"" << json_escape(request.id) << "\",\"status\":\"";
    for (const char c : status_name(response.status))
      out << static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    out << '"';
    if (response.degraded) out << ",\"degraded\":true";
    if (response.ok()) {
      out << ",\"tags\":[";
      for (std::size_t i = 0; i < response.tags.size(); ++i)
        out << (i > 0 ? "," : "") << '"' << labels.name(response.tags[i]) << '"';
      out << ']';
    } else {
      out << ",\"error\":\"" << json_escape(response.error) << '"';
    }
    out << '}';
    return out.str();
  }
  out << sanitize_tsv(request.id) << '\t' << status_name(response.status)
      << (response.degraded ? "*" : "") << '\t';
  if (response.ok()) {
    for (std::size_t i = 0; i < response.tags.size(); ++i)
      out << (i > 0 ? " " : "") << labels.name(response.tags[i]);
  } else {
    out << sanitize_tsv(response.error);
  }
  return out.str();
}

std::string format_parse_error(const std::string& error) {
  return "-\tERROR\tmalformed request: " + sanitize_tsv(error);
}

std::string response_status(const std::string& line) {
  std::string status;
  if (!line.empty() && line.front() == '{') {
    static constexpr std::string_view kKey = "\"status\":\"";
    const std::size_t at = line.find(kKey);
    if (at == std::string::npos) return {};
    for (std::size_t i = at + kKey.size(); i < line.size() && line[i] != '"'; ++i)
      status.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(line[i]))));
    return status;
  }
  const std::size_t first = line.find('\t');
  if (first == std::string::npos) return {};
  const std::size_t second = line.find('\t', first + 1);
  status = line.substr(first + 1, second == std::string::npos
                                      ? std::string::npos
                                      : second - first - 1);
  if (!status.empty() && status.back() == '*') status.pop_back();  // degraded
  return status;
}

bool response_retryable(const std::string& line) {
  const std::string status = response_status(line);
  return status == "OVERLOADED" || status == "DEADLINE_EXCEEDED" ||
         status == "UNAVAILABLE";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace graphner::serve
