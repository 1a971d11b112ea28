// A deterministic, stateless scripted user for the snapshot suites: it
// answers from the ground truth, volunteers the true value on some
// rejects, and appends copies of dirty rows before a fixed pull — so one
// session exercises feedback cascades, volunteered values and streaming
// admission, and two drivers given the same calls give the same answers
// whether or not the session was restored in between.
#ifndef GDR_TESTS_TESTING_SCRIPTED_USER_H_
#define GDR_TESTS_TESTING_SCRIPTED_USER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"
#include "sim/dataset.h"

namespace gdr::testing {

/// Appends land just before this pull (counting pulls from 0).
inline constexpr int kScriptedAppendAtPull = 6;

/// The scripted session's input: the dataset plus the rows it appends and
/// the ground truth extended over them.
struct ScriptedInput {
  Dataset dataset;
  std::vector<std::vector<std::string>> appended;  // dirty copies
  Table truth;  // dataset.clean plus the appended rows' true values
  Table dirty;  // dataset.dirty plus the appended rows, as appended
};

/// Appends copies of the first `rows` rows whose dirty and clean versions
/// differ (the dirty version; its truth is the source row's clean one).
/// Copy k carries one fresh typo — attribute k mod arity gets a '*'
/// appended — so the appends intern values the original table never
/// held, and the session's dictionaries grow past the original's.
inline ScriptedInput MakeScriptedInput(Dataset dataset,
                                       std::size_t rows = 8) {
  ScriptedInput input{std::move(dataset), {}, Table(Schema()), Table(Schema())};
  input.truth = input.dataset.clean;
  input.dirty = input.dataset.dirty;
  const Table& dirty = input.dataset.dirty;
  const Table& clean = input.dataset.clean;
  for (std::size_t r = 0;
       r < dirty.num_rows() && input.appended.size() < rows; ++r) {
    const RowId row = static_cast<RowId>(r);
    std::vector<std::string> dirty_row, clean_row;
    bool differs = false;
    for (std::size_t a = 0; a < dirty.num_attrs(); ++a) {
      const AttrId attr = static_cast<AttrId>(a);
      dirty_row.push_back(dirty.at(row, attr));
      clean_row.push_back(clean.at(row, attr));
      differs = differs || dirty_row.back() != clean_row.back();
    }
    if (!differs) continue;
    dirty_row[input.appended.size() % dirty_row.size()] += '*';
    input.appended.push_back(dirty_row);
    (void)input.truth.AppendRow(clean_row);
    (void)input.dirty.AppendRow(dirty_row);
  }
  return input;
}

struct ScriptedAnswer {
  Feedback feedback = Feedback::kConfirm;
  std::optional<std::string> volunteered;
};

/// The UserOracle rule over strings; a reject volunteers the true value
/// when (row + attr) is even. Stateless, so a driver resuming
/// a restored session answers exactly as an uninterrupted one.
inline ScriptedAnswer AnswerScripted(const Table& table, const Table& truth,
                                     const Update& update) {
  const std::string& expected = truth.at(update.row, update.attr);
  if (table.dict(update.attr).ToString(update.value) == expected) {
    return {Feedback::kConfirm, std::nullopt};
  }
  if (table.at(update.row, update.attr) == expected) {
    return {Feedback::kRetain, std::nullopt};
  }
  if ((update.row + update.attr) % 2 == 0) {
    return {Feedback::kReject, expected};
  }
  return {Feedback::kReject, std::nullopt};
}

/// Answers one delivered suggestion if it is still live.
inline Status AnswerIfLive(GdrSession* session, const ScriptedInput& input,
                           const SuggestedUpdate& s) {
  if (!session->IsLive(s.update_id)) return Status::OK();
  ScriptedAnswer answer =
      AnswerScripted(session->table(), input.truth, s.update);
  return session
      ->SubmitFeedback(s.update_id, answer.feedback,
                       std::move(answer.volunteered))
      .status();
}

/// Drives `session` to completion, counting pulls from `first_pull`:
/// appends `input.appended` just before pull kScriptedAppendAtPull and
/// answers every live suggestion; `after_answer(pull)` runs after each
/// answered one.
inline Status DriveScripted(
    GdrSession* session, const ScriptedInput& input, int first_pull,
    const std::function<void(int pull)>& after_answer = {}) {
  for (int pull = first_pull; session->state() != SessionState::kDone;
       ++pull) {
    if (pull == kScriptedAppendAtPull) {
      GDR_RETURN_NOT_OK(session->AppendDirtyRows(input.appended).status());
    }
    std::vector<SuggestedUpdate> batch;
    GDR_ASSIGN_OR_RETURN(batch, session->NextBatch());
    for (const SuggestedUpdate& s : batch) {
      if (!session->IsLive(s.update_id)) continue;
      GDR_RETURN_NOT_OK(AnswerIfLive(session, input, s));
      if (after_answer) after_answer(pull);
    }
  }
  return Status::OK();
}

/// Every cell string of `table`, row-major.
inline std::vector<std::string> TableCells(const Table& table) {
  std::vector<std::string> cells;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      cells.push_back(table.at(static_cast<RowId>(r), static_cast<AttrId>(a)));
    }
  }
  return cells;
}

/// FNV-1a over every cell string of `table`, row-major.
inline std::uint64_t TableHash(const Table& table) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    for (std::size_t a = 0; a < table.num_attrs(); ++a) {
      for (const char c :
           table.at(static_cast<RowId>(r), static_cast<AttrId>(a))) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
      }
      hash ^= 0x100;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

}  // namespace gdr::testing

#endif  // GDR_TESTS_TESTING_SCRIPTED_USER_H_
