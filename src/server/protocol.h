#ifndef GDR_SERVER_PROTOCOL_H_
#define GDR_SERVER_PROTOCOL_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "server/backend.h"

namespace gdr::server {

/// The line-oriented wire protocol over a Backend. One command per line,
/// whitespace-separated tokens; arbitrary byte strings (cell values,
/// volunteered repairs) travel hex-encoded so they can never break the
/// framing. Replies are status-prefixed: `OK ...` on success, `ERR <code>
/// <message>` on failure. Two commands (`next`, `dump`) reply with a
/// counted header line followed by that many item lines; everything else
/// replies with exactly one line.
///
/// Grammar (see ARCHITECTURE.md for the full reply shapes):
///
///   open <tenant> <session> <workload> [strategy=S] [ns=N] [budget=N]
///        [seed=N] [max-outer=N]         -> OK state=.. dirty=N pool=N
///   next <tenant> <session>             -> OK state=.. n=K
///                                          K x: S <id> <row> <attr-hex>
///                                            <cur-hex> <sug-hex> <voi>
///                                            <uncertainty> <budget>
///   feedback <tenant> <session> <id> confirm|reject|retain [value-hex]
///                                       -> OK outcome=.. state=..
///   append <tenant> <session> <rows>    -> OK appended=N newly-dirty=N
///     (rows: ';'-separated rows of         revived=0|1
///      ','-separated hex cells)
///   snapshot <tenant> <session>         -> OK bytes=N
///   evict <tenant> <session>            -> OK bytes=N
///   dump <tenant> <session>             -> OK n=K ; K x: C <cell-hex>
///   close <tenant> <session>            -> OK closed
///   stats                               -> OK resident=N evicted=N
///                                          bytes=N budget=N opens=N
///                                          evictions=N rehydrations=N
///                                          restore-ms=X
///                                          learner-encode-s=X
///                                          learner-treewalk-s=X
///                                          voi-probe-s=X voi-probes=N
///                                          voi-reprobes=N p-reuses=N
///                                          learner-train-s=X
///                                          learner-trains=N
///                                          regenerate-s=X
///                                          regenerations=N
///                                          grouping-s=X
///   quit                                -> OK bye (and the loop returns)
///
/// Blank lines and lines starting with '#' are ignored without reply.

/// Executes one command line against `backend`, appending the full reply
/// (one or more '\n'-terminated lines) to `reply`. Returns false only for
/// `quit` — the caller should stop reading. Malformed input never aborts:
/// it produces an `ERR InvalidArgument ...` reply like any backend error.
bool HandleCommand(const Backend& backend, std::string_view line,
                   std::string* reply);

/// Reads commands from `in` until EOF or `quit`, writing replies to `out`
/// (flushed per command, so the loop can sit on a pipe). Returns the
/// number of commands executed. This is the whole server: the stdio
/// binary and the in-process tests both run exactly this function.
std::size_t ServerLoop(const Backend& backend, std::istream& in,
                       std::ostream& out);

}  // namespace gdr::server

#endif  // GDR_SERVER_PROTOCOL_H_
