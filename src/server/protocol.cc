#include "server/protocol.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/strings.h"

namespace gdr::server {

namespace {

std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

void AppendError(const Status& status, std::string* reply) {
  reply->append("ERR ");
  reply->append(StatusCodeName(status.code()));
  reply->push_back(' ');
  reply->append(status.message());
  reply->push_back('\n');
}

void AppendErrorArg(std::string message, std::string* reply) {
  AppendError(Status::InvalidArgument(std::move(message)), reply);
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Parses the optional `key=value` tail of `open` into `config`.
Status ParseOpenOption(std::string_view token, OpenConfig* config) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("expected key=value, got '" +
                                   std::string(token) + "'");
  }
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = token.substr(eq + 1);
  if (key == "strategy") {
    config->strategy = std::string(value);
  } else if (key == "ns") {
    GDR_ASSIGN_OR_RETURN(const std::int64_t ns, ParseInt64(value, "ns"));
    if (ns < 1) return Status::InvalidArgument("ns must be >= 1");
    config->ns = static_cast<int>(ns);
  } else if (key == "budget") {
    GDR_ASSIGN_OR_RETURN(const std::uint64_t budget,
                         ParseUint64(value, "budget"));
    config->feedback_budget = static_cast<std::size_t>(budget);
  } else if (key == "seed") {
    GDR_ASSIGN_OR_RETURN(config->seed, ParseUint64(value, "seed"));
  } else if (key == "max-outer") {
    GDR_ASSIGN_OR_RETURN(const std::int64_t max_outer,
                         ParseInt64(value, "max-outer"));
    if (max_outer < 1) {
      return Status::InvalidArgument("max-outer must be >= 1");
    }
    config->max_outer_iterations = static_cast<int>(max_outer);
  } else {
    return Status::InvalidArgument("unknown open option '" +
                                   std::string(key) + "'");
  }
  return Status::OK();
}

// `append` row payload: ';'-separated rows of ','-separated hex cells.
Status ParseRows(std::string_view payload,
                 std::vector<std::vector<std::string>>* rows) {
  std::size_t row_start = 0;
  while (row_start <= payload.size()) {
    std::size_t row_end = payload.find(';', row_start);
    if (row_end == std::string_view::npos) row_end = payload.size();
    const std::string_view row_text =
        payload.substr(row_start, row_end - row_start);
    std::vector<std::string> row;
    std::size_t cell_start = 0;
    while (cell_start <= row_text.size()) {
      std::size_t cell_end = row_text.find(',', cell_start);
      if (cell_end == std::string_view::npos) cell_end = row_text.size();
      std::string cell;
      if (!DecodeHex(row_text.substr(cell_start, cell_end - cell_start),
                     &cell)) {
        return Status::InvalidArgument("malformed hex cell in append row " +
                                       std::to_string(rows->size()));
      }
      row.push_back(std::move(cell));
      if (cell_end == row_text.size()) break;
      cell_start = cell_end + 1;
    }
    rows->push_back(std::move(row));
    if (row_end == payload.size()) break;
    row_start = row_end + 1;
  }
  return Status::OK();
}

}  // namespace

bool HandleCommand(const Backend& backend, std::string_view line,
                   std::string* reply) {
  // Tolerate CRLF input.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty() || tokens[0].front() == '#') return true;
  const std::string_view cmd = tokens[0];

  if (cmd == "quit") {
    reply->append("OK bye\n");
    return false;
  }
  if (cmd == "stats") {
    const WireServerStats stats = backend.ops->stats(backend.self);
    std::ostringstream out;
    out << "OK resident=" << stats.resident_sessions
        << " evicted=" << stats.evicted_sessions
        << " bytes=" << stats.resident_bytes
        << " budget=" << stats.memory_budget_bytes << " opens=" << stats.opens
        << " evictions=" << stats.evictions
        << " rehydrations=" << stats.rehydrations
        << " learner-encode-s=" << stats.learner_encode_seconds
        << " learner-treewalk-s=" << stats.learner_tree_walk_seconds
        << " voi-probe-s=" << stats.voi_probe_seconds
        << " voi-probes=" << stats.voi_probes
        << " learner-train-s=" << stats.learner_train_seconds
        << " learner-trains=" << stats.learner_trains << "\n";
    reply->append(out.str());
    return true;
  }

  // Everything else addresses a session.
  if (tokens.size() < 3) {
    AppendErrorArg("usage: " + std::string(cmd) + " <tenant> <session> ...",
                   reply);
    return true;
  }
  const SessionKey key{std::string(tokens[1]), std::string(tokens[2])};

  if (cmd == "open") {
    if (tokens.size() < 4) {
      AppendErrorArg("usage: open <tenant> <session> <workload> [key=value...]",
                     reply);
      return true;
    }
    OpenConfig config;
    config.workload_spec = std::string(tokens[3]);
    for (std::size_t i = 4; i < tokens.size(); ++i) {
      const Status parsed = ParseOpenOption(tokens[i], &config);
      if (!parsed.ok()) {
        AppendError(parsed, reply);
        return true;
      }
    }
    const Result<WireOpenResult> opened =
        backend.ops->open(backend.self, key, config);
    if (!opened.ok()) {
      AppendError(opened.status(), reply);
      return true;
    }
    std::ostringstream out;
    out << "OK state=" << opened->state << " dirty=" << opened->initial_dirty
        << " pool=" << opened->pool_size << "\n";
    reply->append(out.str());
    return true;
  }

  if (cmd == "next") {
    const Result<WireBatch> batch = backend.ops->next(backend.self, key);
    if (!batch.ok()) {
      AppendError(batch.status(), reply);
      return true;
    }
    std::ostringstream out;
    out << "OK state=" << batch->state << " n=" << batch->suggestions.size()
        << "\n";
    for (const WireSuggestion& s : batch->suggestions) {
      out << "S " << s.update_id << " " << s.row << " " << EncodeHex(s.attr)
          << " " << EncodeHex(s.current_value) << " "
          << EncodeHex(s.suggested_value) << " " << FormatDouble(s.voi_score)
          << " " << FormatDouble(s.uncertainty) << " " << s.budget_remaining
          << "\n";
    }
    reply->append(out.str());
    return true;
  }

  if (cmd == "feedback") {
    if (tokens.size() < 5 || tokens.size() > 6) {
      AppendErrorArg(
          "usage: feedback <tenant> <session> <update-id> "
          "confirm|reject|retain [value-hex]",
          reply);
      return true;
    }
    const Result<std::uint64_t> update_id =
        ParseUint64(tokens[3], "update-id");
    if (!update_id.ok()) {
      AppendError(update_id.status(), reply);
      return true;
    }
    Feedback feedback;
    if (tokens[4] == "confirm") {
      feedback = Feedback::kConfirm;
    } else if (tokens[4] == "reject") {
      feedback = Feedback::kReject;
    } else if (tokens[4] == "retain") {
      feedback = Feedback::kRetain;
    } else {
      AppendErrorArg("feedback must be confirm, reject, or retain; got '" +
                         std::string(tokens[4]) + "'",
                     reply);
      return true;
    }
    std::optional<std::string> value;
    if (tokens.size() == 6) {
      std::string decoded;
      if (!DecodeHex(tokens[5], &decoded)) {
        AppendErrorArg("malformed hex value", reply);
        return true;
      }
      value = std::move(decoded);
    }
    const Result<WireFeedbackResult> result =
        backend.ops->feedback(backend.self, key, *update_id, feedback, value);
    if (!result.ok()) {
      AppendError(result.status(), reply);
      return true;
    }
    reply->append("OK outcome=" + result->outcome + " state=" +
                  result->state + "\n");
    return true;
  }

  if (cmd == "append") {
    if (tokens.size() != 4) {
      AppendErrorArg(
          "usage: append <tenant> <session> "
          "<hex,hex,...;hex,hex,...> (rows ';'-separated, cells "
          "','-separated, each cell hex)",
          reply);
      return true;
    }
    std::vector<std::vector<std::string>> rows;
    const Status parsed = ParseRows(tokens[3], &rows);
    if (!parsed.ok()) {
      AppendError(parsed, reply);
      return true;
    }
    const Result<WireAppendResult> result =
        backend.ops->append(backend.self, key, rows);
    if (!result.ok()) {
      AppendError(result.status(), reply);
      return true;
    }
    std::ostringstream out;
    out << "OK appended=" << result->rows_appended
        << " newly-dirty=" << result->newly_dirty
        << " revived=" << (result->revived ? 1 : 0) << "\n";
    reply->append(out.str());
    return true;
  }

  if (cmd == "snapshot" || cmd == "evict") {
    const auto op = cmd == "snapshot" ? backend.ops->snapshot
                                      : backend.ops->evict;
    const Result<std::size_t> bytes = op(backend.self, key);
    if (!bytes.ok()) {
      AppendError(bytes.status(), reply);
      return true;
    }
    reply->append("OK bytes=" + std::to_string(*bytes) + "\n");
    return true;
  }

  if (cmd == "dump") {
    const Result<std::vector<std::string>> cells =
        backend.ops->dump(backend.self, key);
    if (!cells.ok()) {
      AppendError(cells.status(), reply);
      return true;
    }
    reply->append("OK n=" + std::to_string(cells->size()) + "\n");
    for (const std::string& cell : *cells) {
      reply->append("C " + EncodeHex(cell) + "\n");
    }
    return true;
  }

  if (cmd == "close") {
    const Status closed = backend.ops->close(backend.self, key);
    if (!closed.ok()) {
      AppendError(closed, reply);
      return true;
    }
    reply->append("OK closed\n");
    return true;
  }

  AppendErrorArg("unknown command '" + std::string(cmd) + "'", reply);
  return true;
}

std::size_t ServerLoop(const Backend& backend, std::istream& in,
                       std::ostream& out) {
  std::size_t commands = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string reply;
    const bool keep_going = HandleCommand(backend, line, &reply);
    if (!reply.empty()) {
      ++commands;
      out << reply;
      out.flush();
    }
    if (!keep_going) break;
  }
  return commands;
}

}  // namespace gdr::server
