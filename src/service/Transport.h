//===- Transport.h - Socket/stdio line transport for the protocol -*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte layer under service/Protocol.h: newline-delimited JSON objects
/// over stdio, Unix-domain sockets, or loopback TCP. `optabs-serve
/// --listen=unix:PATH|tcp:PORT` serves the same versioned JSONL protocol
/// it speaks on stdin/stdout, and the shard supervisor
/// (service/ShardRouter.h, tools/optabs_shardd.cpp) connects to its
/// workers through the client half of this file.
///
/// Three pieces:
///
///  * ListenSpec - parses "stdio", "unix:PATH", "tcp:PORT" (loopback
///    only; this service has no auth layer, so it never listens on a
///    routable address).
///  * LineChannel - buffered line IO over a read fd + write fd with
///    poll()-based read timeouts, a bounded maximum line length (an
///    over-long line is consumed through its newline and reported as
///    Overflow so the server can answer with a structured error instead
///    of dying or desynchronizing), and EINTR surfaced as Interrupted so
///    signal handlers can request a graceful shutdown mid-read.
///  * Listener / connectChannel - the accept and connect halves.
///  * serveLines - the server loop both tools run on top of them: signal
///    setup, the stdio-or-accept loop and the per-connection request
///    loop, with the per-line work left to a handler.
///
/// Everything is blocking-with-timeout and single-threaded by design: one
/// channel is owned by one thread, matching the one-connection-at-a-time
/// serve loop and the supervisor's one-channel-per-shard layout
/// (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SERVICE_TRANSPORT_H
#define OPTABS_SERVICE_TRANSPORT_H

#include <cstdint>
#include <functional>
#include <string>

namespace optabs {
namespace service {

/// Default cap on one protocol line (requests carry whole program texts,
/// so this is generous; the flag --max-line-bytes overrides it).
inline constexpr size_t DefaultMaxLineBytes = 8u << 20;

/// Where a server listens or a client connects.
struct ListenSpec {
  enum class Kind : uint8_t { Stdio, Unix, Tcp };
  Kind K = Kind::Stdio;
  std::string Path; ///< Unix socket path
  uint16_t Port = 0; ///< TCP port on 127.0.0.1

  /// Parses "stdio" | "unix:PATH" | "tcp:PORT". Returns false with a
  /// structured \p Err on anything else (empty path, port out of range).
  static bool parse(const std::string &Text, ListenSpec &Out,
                    std::string &Err);

  /// The canonical string form ("unix:/run/x.sock", "tcp:7077", "stdio").
  std::string str() const;
};

/// Buffered newline-delimited IO over a pair of file descriptors (equal
/// for sockets, 0/1 for stdio). Does not own stdio fds; owns socket fds.
class LineChannel {
public:
  enum class ReadStatus : uint8_t {
    Line,        ///< a complete line was read (without its '\n')
    Eof,         ///< orderly close with no buffered partial line
    Timeout,     ///< the per-call timeout elapsed first
    Overflow,    ///< line exceeded the cap; it was consumed and discarded
    Interrupted, ///< EINTR with no data - caller checks its shutdown flag
    Error,       ///< read error (ECONNRESET and friends)
  };

  LineChannel() = default;
  /// \p OwnsFds: close on destruction (sockets yes, stdio no).
  LineChannel(int ReadFd, int WriteFd, bool OwnsFds,
              size_t MaxLineBytes = DefaultMaxLineBytes);
  ~LineChannel();
  LineChannel(LineChannel &&O) noexcept;
  LineChannel &operator=(LineChannel &&O) noexcept;
  LineChannel(const LineChannel &) = delete;
  LineChannel &operator=(const LineChannel &) = delete;

  bool valid() const { return RFd >= 0; }

  /// Reads the next line into \p Out (newline stripped).
  /// \p TimeoutMs < 0 blocks forever. On Overflow the offending line has
  /// been consumed through its terminating newline (or EOF), so the next
  /// call starts clean. On Interrupted no input was lost.
  ReadStatus readLine(std::string &Out, int TimeoutMs = -1);

  /// Writes \p Line plus '\n', retrying partial writes and EINTR.
  /// Returns false on a write error (e.g. the peer died; callers must
  /// ignore SIGPIPE - both tools do).
  bool writeLine(const std::string &Line);

  /// Human-readable name for error messages.
  static const char *statusName(ReadStatus S);

  size_t maxLineBytes() const { return MaxLine; }
  void close();

private:
  int RFd = -1;
  int WFd = -1;
  bool Owns = false;
  size_t MaxLine = DefaultMaxLineBytes;
  std::string Buf;     ///< bytes read but not yet returned
  size_t Scanned = 0;  ///< prefix of Buf already searched for '\n'
  bool SawEof = false;
  bool Discarding = false; ///< inside an over-long line, eating to '\n'
};

/// A bound, listening server socket for ListenSpec::Kind::Unix/Tcp.
class Listener {
public:
  Listener() = default;
  ~Listener();
  Listener(Listener &&O) noexcept;
  Listener &operator=(Listener &&O) noexcept;
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;

  /// Binds and listens. For unix specs a stale socket file is unlinked
  /// first; the file is unlinked again on destruction.
  static bool open(const ListenSpec &Spec, Listener &Out, std::string &Err);

  bool valid() const { return Fd >= 0; }

  /// Accepts one connection. Returns an invalid channel on timeout
  /// (\p TimedOut set), on EINTR (\p Interrupted set), or on error.
  LineChannel acceptChannel(int TimeoutMs, bool &TimedOut, bool &Interrupted,
                            size_t MaxLineBytes = DefaultMaxLineBytes);

  /// The spec this listener is bound to; for tcp:0 the kernel-assigned
  /// port is filled in, so tests can listen on an ephemeral port.
  const ListenSpec &spec() const { return Spec; }

  void close();

private:
  int Fd = -1;
  ListenSpec Spec;
};

/// Connects to a unix/tcp spec, retrying ECONNREFUSED/ENOENT until
/// \p TimeoutMs elapses (workers bind their socket asynchronously after
/// being spawned, so the supervisor polls). Invalid channel + \p Err on
/// failure.
LineChannel connectChannel(const ListenSpec &Spec, int TimeoutMs,
                           std::string &Err,
                           size_t MaxLineBytes = DefaultMaxLineBytes);

/// Installs the SIGTERM/SIGINT handler that stops serveLines, without
/// SA_RESTART so a signal interrupts a blocking read()/poll()/accept()
/// with EINTR instead of silently restarting it, and ignores SIGPIPE: a
/// client vanishing mid-response must surface as a write error, not kill
/// the server.
void installShutdownSignals();

/// Why serveLines returned.
enum class ServeExit : uint8_t {
  Shutdown,     ///< the handler asked the whole server to stop
  Signalled,    ///< SIGTERM/SIGINT (see installShutdownSignals)
  Closed,       ///< stdio reached EOF or a read error
  ListenFailed, ///< the socket could not be bound; Err says why
};

/// Handles one request line, writing each response line to the channel
/// as it is produced. Returns false to stop the whole server.
using LineHandler =
    std::function<bool(const std::string &Line, LineChannel &Ch)>;

/// Serves \p Spec until \p Handle returns false or a shutdown signal
/// arrives: stdio is one connection; a unix/tcp spec serves one accepted
/// connection at a time, and the server outlives each. Blank lines and
/// `#` comments are skipped (they keep scripted sessions readable); an
/// over-long line is answered with a structured error and dropped; a
/// socket connection silent for \p ReadTimeoutMs (0 = never) gets a
/// structured goodbye and is closed.
ServeExit serveLines(const ListenSpec &Spec, size_t MaxLineBytes,
                     uint64_t ReadTimeoutMs, const LineHandler &Handle,
                     std::string &Err);

} // namespace service
} // namespace optabs

#endif // OPTABS_SERVICE_TRANSPORT_H
