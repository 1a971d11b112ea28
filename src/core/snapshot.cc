// SessionSnapshot's wire format: a versioned header, the v4 checkpoint,
// the event tail and the "end" marker. Space-separated tokens, one record
// per line; strings travel hex-encoded.
#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "core/session.h"
#include "util/strings.h"

namespace gdr {

namespace {

constexpr char kSnapshotMagic[] = "GDRSNAP";
// Version 2 added the append ("A") event for streaming admissions;
// version 3 added the trailing "end" marker, which is how Deserialize
// distinguishes a complete snapshot from a truncated prefix (a crash
// mid-write used to be able to produce a prefix that still parsed, with a
// silently shortened last value); version 4 added the checkpoint.
// Version-1/2 snapshots (no marker) still deserialize.
constexpr int kLogVersion = 3;
constexpr int kCheckpointVersion = 4;

// GdrStats' counters in wire order (timings are not carried).
constexpr std::size_t GdrStats::*kStatsCounters[] = {
    &GdrStats::initial_dirty,     &GdrStats::user_feedback,
    &GdrStats::user_confirms,     &GdrStats::user_rejects,
    &GdrStats::user_retains,      &GdrStats::user_suggested_values,
    &GdrStats::learner_decisions, &GdrStats::learner_confirms,
    &GdrStats::forced_repairs,    &GdrStats::outer_iterations,
    &GdrStats::appended_rows,     &GdrStats::admitted_dirty,
};

// Doubles at or above this magnitude are written as bit patterns: below
// it every integral double is exactly an int64.
constexpr double kExactIntegers = 9007199254740992.0;  // 2^53

class Writer {
 public:
  Writer& Word(std::string_view word) {
    Sep();
    out_ += word;
    return *this;
  }
  template <typename T>
  Writer& Int(T value) {
    Sep();
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    out_.append(buf, end);
    return *this;
  }
  // Exact and compact: integral doubles (the value ids and counts that
  // fill feature vectors) as decimal, everything else as its bit pattern,
  // "x" + 16 hex digits.
  Writer& Double(double value) {
    if (value == std::trunc(value) && std::fabs(value) < kExactIntegers &&
        !(value == 0.0 && std::signbit(value))) {
      return Int(static_cast<std::int64_t>(value));
    }
    char hex[16];
    const auto end =
        std::to_chars(hex, hex + 16, std::bit_cast<std::uint64_t>(value), 16)
            .ptr;
    Sep();
    out_ += 'x';
    out_.append(static_cast<std::size_t>(hex + 16 - end), '0');
    out_.append(hex, end);
    return *this;
  }
  // The header's historic decimal form (17 significant digits round-trip).
  Writer& Real(double value) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
    return Word(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  Writer& Hex(std::string_view bytes) {
    Sep();
    out_ += 'V';
    out_ += EncodeHex(bytes);
    return *this;
  }
  Writer& Line() {
    out_ += '\n';
    return *this;
  }
  std::string Take() { return std::move(out_); }

 private:
  void Sep() {
    if (!out_.empty() && out_.back() != '\n') out_ += ' ';
  }
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  // The next whitespace-delimited token; false at the end of the text.
  bool Word(std::string_view* word) {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
    if (pos_ == text_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    *word = text_.substr(start, pos_ - start);
    return true;
  }
  bool Expect(std::string_view keyword) {
    std::string_view word;
    return Word(&word) && word == keyword;
  }
  template <typename T>
  bool Int(T* value) {
    std::string_view word;
    return Word(&word) && Parse(word, value, 10);
  }
  bool Bool(bool* value) {
    int v = 0;
    if (!Int(&v) || (v != 0 && v != 1)) return false;
    *value = v == 1;
    return true;
  }
  bool Double(double* value) {
    std::string_view word;
    if (!Word(&word)) return false;
    if (word.front() == 'x') {
      std::uint64_t bits = 0;
      if (word.size() != 17 || !Parse(word.substr(1), &bits, 16)) return false;
      *value = std::bit_cast<double>(bits);
      return true;
    }
    std::int64_t integral = 0;
    if (!Parse(word, &integral, 10)) return false;
    *value = static_cast<double>(integral);
    return std::fabs(*value) < kExactIntegers;
  }
  bool Real(double* value) {
    std::string_view word;
    if (!Word(&word)) return false;
    const auto [end, ec] =
        std::from_chars(word.data(), word.data() + word.size(), *value);
    return ec == std::errc() && end == word.data() + word.size();
  }
  bool Hex(std::string* bytes) {
    std::string_view word;
    return Word(&word) && word.front() == 'V' &&
           DecodeHex(word.substr(1), bytes);
  }
  // A count of items that each span at least `tokens` tokens, so at least
  // 2 * tokens bytes: a corrupt count fails here instead of sizing an
  // allocation.
  bool Count(std::size_t* n, std::size_t tokens = 1) {
    return Int(n) && *n <= left() / (2 * std::max<std::size_t>(1, tokens));
  }
  std::size_t left() const { return text_.size() - pos_; }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
           c == '\f';
  }
  template <typename T>
  static bool Parse(std::string_view word, T* value, int base) {
    const auto [end, ec] =
        std::from_chars(word.data(), word.data() + word.size(), *value, base);
    return ec == std::errc() && end == word.data() + word.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void WriteUpdate(const Update& u, Writer* w) {
  w->Int(u.row).Int(u.attr).Int(u.value).Double(u.score);
}

bool ReadUpdate(Reader* r, Update* u) {
  return r->Int(&u->row) && r->Int(&u->attr) && r->Int(&u->value) &&
         r->Double(&u->score);
}

void WriteCells(std::string_view keyword,
                const std::vector<SessionCheckpoint::Cell>& cells,
                Writer* w) {
  w->Word(keyword).Int(cells.size()).Line();
  for (const SessionCheckpoint::Cell& c : cells) {
    w->Int(c.row).Int(c.attr).Int(c.value).Line();
  }
}

bool ReadCells(std::string_view keyword, Reader* r,
               std::vector<SessionCheckpoint::Cell>* cells) {
  std::size_t n = 0;
  if (!r->Expect(keyword) || !r->Count(&n, 3)) return false;
  cells->resize(n);
  for (SessionCheckpoint::Cell& c : *cells) {
    if (!r->Int(&c.row) || !r->Int(&c.attr) || !r->Int(&c.value)) return false;
  }
  return true;
}

void WriteCheckpoint(const SessionCheckpoint& cp, Writer* w) {
  const std::size_t num_attrs = cp.base_domain.size();
  w->Word("table").Int(cp.base_rows).Int(cp.base_digest).Int(num_attrs).Line();
  for (std::size_t a = 0; a < num_attrs; ++a) {
    w->Word("dict").Int(cp.base_domain[a]).Int(cp.interned[a].size());
    for (const std::string& value : cp.interned[a]) w->Hex(value);
    w->Line();
  }
  w->Word("appended").Int(cp.appended.size()).Line();
  for (const std::vector<ValueId>& row : cp.appended) {
    for (ValueId v : row) w->Int(v);
    w->Line();
  }
  WriteCells("frozen", cp.frozen, w);
  WriteCells("prevented", cp.prevented, w);
  w->Word("pool").Int(cp.pool.size()).Line();
  for (const Update& u : cp.pool) {
    WriteUpdate(u, w);
    w->Line();
  }
  w->Word("dirty").Int(cp.dirty.size());
  for (RowId row : cp.dirty) w->Int(row);
  w->Line().Word("weights").Int(cp.rule_weights.size());
  for (double weight : cp.rule_weights) w->Double(weight);
  w->Line().Word("projections").Int(cp.projections.size());
  for (const auto& [rule, attr] : cp.projections) w->Int(rule).Int(attr);
  w->Line().Word("rng");
  for (std::uint64_t word : cp.rng) w->Int(word);
  w->Line().Word("stats");
  for (std::size_t GdrStats::*counter : kStatsCounters) {
    w->Int(cp.stats.*counter);
  }
  w->Line().Word("learner").Int(cp.learner.size()).Line();
  for (const LearnerBank::AttrState& attr : cp.learner) {
    const std::size_t width =
        attr.examples.empty() ? 0 : attr.examples.front().features.size();
    w->Word("attr").Int(attr.examples.size()).Int(width).Int(attr.trained_on);
    for (std::size_t c = 0; c < kNumFeedbackClasses; ++c) {
      w->Int(attr.outcome_count[c]);
      std::string bits;
      for (bool correct : attr.outcome_window[c]) bits += correct ? '1' : '0';
      w->Word(bits.empty() ? "-" : bits);
    }
    w->Line();
    for (const Example& example : attr.examples) {
      w->Int(example.label);
      for (double feature : example.features) w->Double(feature);
      w->Line();
    }
  }
  w->Word("loop")
      .Int(cp.phase)
      .Int(cp.iterations)
      .Int(cp.quota)
      .Int(cp.labeled_in_group)
      .Int(cp.before_feedback)
      .Int(cp.before_decisions)
      .Int(cp.admitted_since_iteration ? 1 : 0)
      .Int(cp.labeled_in_round)
      .Int(cp.next_update_id)
      .Double(cp.group_score)
      .Line();
  w->Word("picked")
      .Int(cp.picked.attr)
      .Int(cp.picked.value)
      .Int(cp.picked.updates.size())
      .Line();
  for (const Update& u : cp.picked.updates) {
    WriteUpdate(u, w);
    w->Line();
  }
  w->Word("touched").Int(cp.touched_attrs.size());
  for (AttrId attr : cp.touched_attrs) w->Int(attr);
  w->Line().Word("outstanding").Int(cp.outstanding.size()).Line();
  for (const SessionCheckpoint::Outstanding& entry : cp.outstanding) {
    const SuggestedUpdate& s = entry.suggestion;
    w->Int(s.update_id);
    WriteUpdate(s.update, w);
    w->Int(s.group_attr)
        .Int(s.group_value)
        .Double(s.voi_score)
        .Double(s.uncertainty)
        .Int(s.budget_remaining)
        .Int(entry.resolved ? 1 : 0)
        .Line();
  }
}

// Syntax only: ids are range-checked against the table by
// GdrSession::LoadCheckpoint, which knows it.
bool ReadCheckpoint(Reader* r, SessionCheckpoint* cp) {
  std::size_t num_attrs = 0;
  if (!r->Expect("table") || !r->Int(&cp->base_rows) ||
      !r->Int(&cp->base_digest) || !r->Count(&num_attrs, 4)) {
    return false;
  }
  cp->base_domain.resize(num_attrs);
  cp->interned.resize(num_attrs);
  for (std::size_t a = 0; a < num_attrs; ++a) {
    std::size_t n = 0;
    if (!r->Expect("dict") || !r->Int(&cp->base_domain[a]) || !r->Count(&n)) {
      return false;
    }
    cp->interned[a].resize(n);
    for (std::string& value : cp->interned[a]) {
      if (!r->Hex(&value)) return false;
    }
  }
  std::size_t n = 0;
  if (!r->Expect("appended") || !r->Count(&n, num_attrs)) return false;
  cp->appended.assign(n, std::vector<ValueId>(num_attrs));
  for (std::vector<ValueId>& row : cp->appended) {
    for (ValueId& v : row) {
      if (!r->Int(&v)) return false;
    }
  }
  if (!ReadCells("frozen", r, &cp->frozen) ||
      !ReadCells("prevented", r, &cp->prevented)) {
    return false;
  }
  if (!r->Expect("pool") || !r->Count(&n, 4)) return false;
  cp->pool.resize(n);
  for (Update& u : cp->pool) {
    if (!ReadUpdate(r, &u)) return false;
  }
  if (!r->Expect("dirty") || !r->Count(&n)) return false;
  cp->dirty.resize(n);
  for (RowId& row : cp->dirty) {
    if (!r->Int(&row)) return false;
  }
  if (!r->Expect("weights") || !r->Count(&n)) return false;
  cp->rule_weights.resize(n);
  for (double& weight : cp->rule_weights) {
    if (!r->Double(&weight)) return false;
  }
  if (!r->Expect("projections") || !r->Count(&n, 2)) return false;
  cp->projections.resize(n);
  for (auto& [rule, attr] : cp->projections) {
    if (!r->Int(&rule) || !r->Int(&attr)) return false;
  }
  if (!r->Expect("rng")) return false;
  for (std::uint64_t& word : cp->rng) {
    if (!r->Int(&word)) return false;
  }
  if (!r->Expect("stats")) return false;
  for (std::size_t GdrStats::*counter : kStatsCounters) {
    if (!r->Int(&(cp->stats.*counter))) return false;
  }
  if (!r->Expect("learner") || !r->Count(&n, 9)) return false;
  cp->learner.resize(n);
  for (LearnerBank::AttrState& attr : cp->learner) {
    std::size_t examples = 0, width = 0;
    if (!r->Expect("attr") || !r->Int(&examples) || !r->Count(&width) ||
        !r->Int(&attr.trained_on)) {
      return false;
    }
    for (std::size_t c = 0; c < kNumFeedbackClasses; ++c) {
      std::string_view bits;
      if (!r->Int(&attr.outcome_count[c]) || !r->Word(&bits)) return false;
      if (bits == "-") continue;
      for (char bit : bits) {
        if (bit != '0' && bit != '1') return false;
        attr.outcome_window[c].push_back(bit == '1');
      }
    }
    // Each example is a label plus `width` features.
    if (examples > r->left() / (2 * (width + 1))) return false;
    attr.examples.assign(examples, Example{std::vector<double>(width), 0});
    for (Example& example : attr.examples) {
      if (!r->Int(&example.label)) return false;
      for (double& feature : example.features) {
        if (!r->Double(&feature)) return false;
      }
    }
  }
  if (!r->Expect("loop") || !r->Int(&cp->phase) || !r->Int(&cp->iterations) ||
      !r->Int(&cp->quota) || !r->Int(&cp->labeled_in_group) ||
      !r->Int(&cp->before_feedback) || !r->Int(&cp->before_decisions) ||
      !r->Bool(&cp->admitted_since_iteration) ||
      !r->Int(&cp->labeled_in_round) || !r->Int(&cp->next_update_id) ||
      !r->Double(&cp->group_score)) {
    return false;
  }
  if (!r->Expect("picked") || !r->Int(&cp->picked.attr) ||
      !r->Int(&cp->picked.value) || !r->Count(&n, 4)) {
    return false;
  }
  cp->picked.updates.resize(n);
  for (Update& u : cp->picked.updates) {
    if (!ReadUpdate(r, &u)) return false;
  }
  if (!r->Expect("touched") || !r->Count(&n)) return false;
  cp->touched_attrs.resize(n);
  for (AttrId& attr : cp->touched_attrs) {
    if (!r->Int(&attr)) return false;
  }
  if (!r->Expect("outstanding") || !r->Count(&n, 11)) return false;
  cp->outstanding.resize(n);
  for (SessionCheckpoint::Outstanding& entry : cp->outstanding) {
    SuggestedUpdate& s = entry.suggestion;
    if (!r->Int(&s.update_id) || !ReadUpdate(r, &s.update) ||
        !r->Int(&s.group_attr) || !r->Int(&s.group_value) ||
        !r->Double(&s.voi_score) || !r->Double(&s.uncertainty) ||
        !r->Int(&s.budget_remaining) || !r->Bool(&entry.resolved)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string SessionSnapshot::Serialize() const {
  Writer w;
  w.Word(kSnapshotMagic)
      .Int(checkpoint.has_value() ? kCheckpointVersion : kLogVersion)
      .Line();
  w.Word("strategy").Word(StrategyName(strategy)).Line();
  w.Word("seed").Int(seed).Line();
  w.Word("budget").Int(feedback_budget).Line();
  w.Word("ns").Int(ns).Line();
  w.Word("max_outer").Int(max_outer_iterations).Line();
  w.Word("sweep_passes").Int(learner_sweep_passes).Line();
  w.Word("max_uncertainty").Real(learner_max_uncertainty).Line();
  w.Word("min_accuracy").Real(learner_min_accuracy).Line();
  if (checkpoint.has_value()) WriteCheckpoint(*checkpoint, &w);
  w.Word("events").Int(events.size()).Line();
  for (const Event& event : events) {
    switch (event.kind) {
      case Event::Kind::kPull:
        w.Word("P").Line();
        break;
      case Event::Kind::kAppend: {
        // Rows are recorded verbatim so replay re-appends exactly what the
        // live session ingested; arity is uniform (AppendRows validated
        // it).
        const std::size_t arity =
            event.rows.empty() ? 0 : event.rows[0].size();
        w.Word("A").Int(event.rows.size()).Int(arity).Int(event.newly_dirty);
        w.Line();
        for (const std::vector<std::string>& row : event.rows) {
          for (const std::string& cell : row) w.Hex(cell);  // any byte
          w.Line();
        }
        break;
      }
      case Event::Kind::kSubmit:
        w.Word("S")
            .Int(event.update_id)
            .Int(static_cast<int>(event.feedback))
            .Word(event.applied ? "A" : "X");
        if (event.has_value) {
          w.Hex(event.value);
        } else {
          w.Word("-");
        }
        w.Line();
        break;
    }
  }
  w.Word("end").Line();
  return w.Take();
}

Result<SessionSnapshot> SessionSnapshot::Deserialize(std::string_view text) {
  Reader in(text);
  int version = 0;
  if (!in.Expect(kSnapshotMagic) || !in.Int(&version)) {
    return Status::InvalidArgument("not a GDR session snapshot");
  }
  if (version < 1 || version > kCheckpointVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version));
  }
  SessionSnapshot snapshot;
  std::string_view strategy_name;
  if (!in.Expect("strategy") || !in.Word(&strategy_name) ||
      !in.Expect("seed") || !in.Int(&snapshot.seed) ||        //
      !in.Expect("budget") || !in.Int(&snapshot.feedback_budget) ||
      !in.Expect("ns") || !in.Int(&snapshot.ns) ||            //
      !in.Expect("max_outer") || !in.Int(&snapshot.max_outer_iterations) ||
      !in.Expect("sweep_passes") || !in.Int(&snapshot.learner_sweep_passes) ||
      !in.Expect("max_uncertainty") ||
      !in.Real(&snapshot.learner_max_uncertainty) ||
      !in.Expect("min_accuracy") || !in.Real(&snapshot.learner_min_accuracy)) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  GDR_ASSIGN_OR_RETURN(snapshot.strategy, StrategyFromName(strategy_name));
  if (version >= kCheckpointVersion) {
    snapshot.checkpoint.emplace();
    if (!ReadCheckpoint(&in, &*snapshot.checkpoint)) {
      return Status::InvalidArgument("malformed snapshot checkpoint");
    }
  }
  std::size_t num_events = 0;
  if (!in.Expect("events") || !in.Int(&num_events)) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  // Every event takes at least two bytes ("P\n").
  if (num_events > in.left() / 2) {
    return Status::InvalidArgument("snapshot declares " +
                                   std::to_string(num_events) +
                                   " events, more than its bytes can hold");
  }
  snapshot.events.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    std::string_view tag;
    if (!in.Word(&tag)) {
      return Status::InvalidArgument("snapshot truncated: expected " +
                                     std::to_string(num_events) + " events");
    }
    Event event;
    if (tag == "P") {
      event.kind = Event::Kind::kPull;
    } else if (tag == "S") {
      event.kind = Event::Kind::kSubmit;
      int feedback = -1;
      std::string_view applied, payload;
      if (!in.Int(&event.update_id) || !in.Int(&feedback) ||
          !in.Word(&applied) || !in.Word(&payload) || feedback < 0 ||
          feedback >= kNumFeedbackClasses ||
          (applied != "A" && applied != "X")) {
        return Status::InvalidArgument("malformed submit event");
      }
      event.feedback = static_cast<Feedback>(feedback);
      event.applied = applied == "A";
      if (payload != "-") {
        if (payload.front() != 'V' ||
            !DecodeHex(payload.substr(1), &event.value)) {
          return Status::InvalidArgument("malformed volunteered value");
        }
        event.has_value = true;
      }
    } else if (tag == "A") {
      event.kind = Event::Kind::kAppend;
      std::size_t num_rows = 0, arity = 0;
      if (!in.Int(&num_rows) || !in.Int(&arity) ||
          !in.Int(&event.newly_dirty)) {
        return Status::InvalidArgument("malformed append event");
      }
      // Every row ends in a newline and every cell takes at least two
      // bytes ("V" plus a separator).
      const std::size_t left = in.left();
      if (num_rows > left || (arity > 0 && num_rows > left / 2 / arity)) {
        return Status::InvalidArgument(
            "append event declares more cells than the snapshot holds");
      }
      event.rows.assign(num_rows, std::vector<std::string>(arity));
      for (std::vector<std::string>& row : event.rows) {
        for (std::string& cell : row) {
          if (!in.Hex(&cell)) {
            return Status::InvalidArgument("malformed append event cell");
          }
        }
      }
    } else {
      return Status::InvalidArgument("unknown snapshot event tag '" +
                                     std::string(tag) + "'");
    }
    snapshot.events.push_back(std::move(event));
  }
  if (version >= 3 && !in.Expect("end")) {
    // The explicit terminator is the truncation check: without it, a
    // prefix cut inside the last event's hex payload could parse as a
    // complete snapshot with a silently corrupted value.
    return Status::InvalidArgument(
        "snapshot truncated: missing 'end' marker after events");
  }
  return snapshot;
}

}  // namespace gdr
