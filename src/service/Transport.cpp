//===- Transport.cpp - Socket/stdio line transport for the protocol -------===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/Transport.h"

#include "service/Protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace optabs {
namespace service {

//===----------------------------------------------------------------------===//
// ListenSpec
//===----------------------------------------------------------------------===//

bool ListenSpec::parse(const std::string &Text, ListenSpec &Out,
                       std::string &Err) {
  if (Text == "stdio") {
    Out = ListenSpec();
    return true;
  }
  if (Text.rfind("unix:", 0) == 0) {
    std::string Path = Text.substr(5);
    if (Path.empty()) {
      Err = "unix listen spec needs a path ('unix:/run/optabs.sock')";
      return false;
    }
    // sockaddr_un::sun_path is ~108 bytes; fail here with a clear message
    // rather than from bind() with ENAMETOOLONG.
    if (Path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      Err = "unix socket path exceeds " +
            std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes";
      return false;
    }
    Out.K = Kind::Unix;
    Out.Path = std::move(Path);
    Out.Port = 0;
    return true;
  }
  if (Text.rfind("tcp:", 0) == 0) {
    const std::string PortText = Text.substr(4);
    if (PortText.empty()) {
      Err = "tcp listen spec needs a port ('tcp:7077')";
      return false;
    }
    uint64_t Port = 0;
    for (char C : PortText) {
      if (C < '0' || C > '9') {
        Err = "tcp port '" + PortText + "' is not a number";
        return false;
      }
      Port = Port * 10 + static_cast<uint64_t>(C - '0');
      if (Port > 65535) {
        Err = "tcp port '" + PortText + "' is out of range";
        return false;
      }
    }
    Out.K = Kind::Tcp;
    Out.Path.clear();
    Out.Port = static_cast<uint16_t>(Port);
    return true;
  }
  Err = "listen spec must be 'stdio', 'unix:PATH', or 'tcp:PORT', got '" +
        Text + "'";
  return false;
}

std::string ListenSpec::str() const {
  switch (K) {
  case Kind::Stdio:
    return "stdio";
  case Kind::Unix:
    return "unix:" + Path;
  case Kind::Tcp:
    return "tcp:" + std::to_string(Port);
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// LineChannel
//===----------------------------------------------------------------------===//

LineChannel::LineChannel(int ReadFd, int WriteFd, bool OwnsFds,
                         size_t MaxLineBytes)
    : RFd(ReadFd), WFd(WriteFd), Owns(OwnsFds),
      MaxLine(MaxLineBytes ? MaxLineBytes : DefaultMaxLineBytes) {}

LineChannel::~LineChannel() { close(); }

LineChannel::LineChannel(LineChannel &&O) noexcept
    : RFd(O.RFd), WFd(O.WFd), Owns(O.Owns), MaxLine(O.MaxLine),
      Buf(std::move(O.Buf)), Scanned(O.Scanned), SawEof(O.SawEof),
      Discarding(O.Discarding) {
  O.RFd = O.WFd = -1;
  O.Owns = false;
}

LineChannel &LineChannel::operator=(LineChannel &&O) noexcept {
  if (this != &O) {
    close();
    RFd = O.RFd;
    WFd = O.WFd;
    Owns = O.Owns;
    MaxLine = O.MaxLine;
    Buf = std::move(O.Buf);
    Scanned = O.Scanned;
    SawEof = O.SawEof;
    Discarding = O.Discarding;
    O.RFd = O.WFd = -1;
    O.Owns = false;
  }
  return *this;
}

void LineChannel::close() {
  if (Owns) {
    if (RFd >= 0)
      ::close(RFd);
    if (WFd >= 0 && WFd != RFd)
      ::close(WFd);
  }
  RFd = WFd = -1;
  Owns = false;
}

LineChannel::ReadStatus LineChannel::readLine(std::string &Out,
                                              int TimeoutMs) {
  if (RFd < 0)
    return ReadStatus::Error;
  for (;;) {
    // Scan only bytes not seen by a previous pass.
    size_t Nl = Buf.find('\n', Scanned);
    Scanned = Buf.size();
    if (Nl != std::string::npos) {
      if (Discarding) {
        // End of the over-long line: drop it and report the overflow.
        Buf.erase(0, Nl + 1);
        Scanned = 0;
        Discarding = false;
        return ReadStatus::Overflow;
      }
      if (Nl > MaxLine) {
        // The whole over-long line arrived in one buffered gulp; still an
        // overflow - length is the contract, not arrival pattern.
        Buf.erase(0, Nl + 1);
        Scanned = 0;
        return ReadStatus::Overflow;
      }
      Out.assign(Buf, 0, Nl);
      if (!Out.empty() && Out.back() == '\r')
        Out.pop_back();
      Buf.erase(0, Nl + 1);
      Scanned = 0;
      return ReadStatus::Line;
    }
    if (Buf.size() > MaxLine && !Discarding) {
      // Too long without a newline: switch to discard mode and keep
      // consuming until the terminator so the stream stays line-aligned.
      Discarding = true;
      Buf.clear();
      Scanned = 0;
    }
    if (Discarding) {
      Buf.clear();
      Scanned = 0;
    }
    if (SawEof) {
      // A final unterminated fragment still counts as a line; overflow
      // trumps it.
      if (Discarding) {
        Discarding = false;
        return ReadStatus::Overflow;
      }
      if (!Buf.empty()) {
        Out = std::move(Buf);
        Buf.clear();
        Scanned = 0;
        return ReadStatus::Line;
      }
      return ReadStatus::Eof;
    }

    if (TimeoutMs >= 0) {
      pollfd P{RFd, POLLIN, 0};
      int R = ::poll(&P, 1, TimeoutMs);
      if (R == 0)
        return ReadStatus::Timeout;
      if (R < 0) {
        if (errno == EINTR)
          return ReadStatus::Interrupted;
        return ReadStatus::Error;
      }
    }
    char Chunk[4096];
    ssize_t N = ::read(RFd, Chunk, sizeof(Chunk));
    if (N > 0) {
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (N == 0) {
      SawEof = true;
      continue;
    }
    if (errno == EINTR)
      return ReadStatus::Interrupted;
    return ReadStatus::Error;
  }
}

bool LineChannel::writeLine(const std::string &Line) {
  if (WFd < 0)
    return false;
  std::string Data = Line;
  Data += '\n';
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(WFd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

const char *LineChannel::statusName(ReadStatus S) {
  switch (S) {
  case ReadStatus::Line:
    return "line";
  case ReadStatus::Eof:
    return "eof";
  case ReadStatus::Timeout:
    return "timeout";
  case ReadStatus::Overflow:
    return "overflow";
  case ReadStatus::Interrupted:
    return "interrupted";
  case ReadStatus::Error:
    return "error";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Listener / connectChannel
//===----------------------------------------------------------------------===//

namespace {

int makeSocket(const ListenSpec &Spec, std::string &Err) {
  int Fd = ::socket(Spec.K == ListenSpec::Kind::Unix ? AF_UNIX : AF_INET,
                    SOCK_STREAM, 0);
  if (Fd < 0)
    Err = std::string("socket failed: ") + std::strerror(errno);
  return Fd;
}

} // namespace

Listener::~Listener() { close(); }

Listener::Listener(Listener &&O) noexcept : Fd(O.Fd), Spec(O.Spec) {
  O.Fd = -1;
}

Listener &Listener::operator=(Listener &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    Spec = O.Spec;
    O.Fd = -1;
  }
  return *this;
}

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
    if (Spec.K == ListenSpec::Kind::Unix)
      ::unlink(Spec.Path.c_str());
  }
}

bool Listener::open(const ListenSpec &Spec, Listener &Out, std::string &Err) {
  Out.close();
  if (Spec.K == ListenSpec::Kind::Stdio) {
    Err = "cannot listen on stdio";
    return false;
  }
  int Fd = makeSocket(Spec, Err);
  if (Fd < 0)
    return false;
  if (Spec.K == ListenSpec::Kind::Unix) {
    ::unlink(Spec.Path.c_str()); // a stale file from a dead server
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Spec.Path.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      Err = "bind(" + Spec.Path + ") failed: " + std::strerror(errno);
      ::close(Fd);
      return false;
    }
  } else {
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Spec.Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // never routable
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      Err = "bind(127.0.0.1:" + std::to_string(Spec.Port) +
            ") failed: " + std::strerror(errno);
      ::close(Fd);
      return false;
    }
  }
  if (::listen(Fd, 16) != 0) {
    Err = std::string("listen failed: ") + std::strerror(errno);
    ::close(Fd);
    if (Spec.K == ListenSpec::Kind::Unix)
      ::unlink(Spec.Path.c_str());
    return false;
  }
  Out.Fd = Fd;
  Out.Spec = Spec;
  if (Spec.K == ListenSpec::Kind::Tcp && Spec.Port == 0) {
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
      Out.Spec.Port = ntohs(Bound.sin_port);
  }
  return true;
}

LineChannel Listener::acceptChannel(int TimeoutMs, bool &TimedOut,
                                    bool &Interrupted, size_t MaxLineBytes) {
  TimedOut = Interrupted = false;
  if (Fd < 0)
    return LineChannel();
  if (TimeoutMs >= 0) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, TimeoutMs);
    if (R == 0) {
      TimedOut = true;
      return LineChannel();
    }
    if (R < 0) {
      Interrupted = errno == EINTR;
      return LineChannel();
    }
  }
  int Conn = ::accept(Fd, nullptr, nullptr);
  if (Conn < 0) {
    Interrupted = errno == EINTR;
    return LineChannel();
  }
  return LineChannel(Conn, Conn, /*OwnsFds=*/true, MaxLineBytes);
}

LineChannel connectChannel(const ListenSpec &Spec, int TimeoutMs,
                           std::string &Err, size_t MaxLineBytes) {
  if (Spec.K == ListenSpec::Kind::Stdio) {
    Err = "cannot connect to stdio";
    return LineChannel();
  }
  // Retry the whole connect while the server is still coming up: a
  // freshly spawned worker binds its socket some milliseconds after
  // exec, so ENOENT/ECONNREFUSED are transient here.
  int Waited = 0;
  for (;;) {
    int Fd = makeSocket(Spec, Err);
    if (Fd < 0)
      return LineChannel();
    int RC;
    if (Spec.K == ListenSpec::Kind::Unix) {
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Spec.Path.c_str(),
                   sizeof(Addr.sun_path) - 1);
      RC = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    } else {
      sockaddr_in Addr{};
      Addr.sin_family = AF_INET;
      Addr.sin_port = htons(Spec.Port);
      Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      RC = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    }
    if (RC == 0) {
      Err.clear();
      return LineChannel(Fd, Fd, /*OwnsFds=*/true, MaxLineBytes);
    }
    int E = errno;
    ::close(Fd);
    if (E != ECONNREFUSED && E != ENOENT && E != EAGAIN) {
      Err = "connect(" + Spec.str() + ") failed: " + std::strerror(E);
      return LineChannel();
    }
    if (Waited >= TimeoutMs) {
      Err = "connect(" + Spec.str() + ") timed out after " +
            std::to_string(TimeoutMs) + "ms: " + std::strerror(E);
      return LineChannel();
    }
    ::usleep(10 * 1000);
    Waited += 10;
  }
}

//===----------------------------------------------------------------------===//
// serveLines
//===----------------------------------------------------------------------===//

namespace {

volatile sig_atomic_t GShutdownSignal = 0;

void onShutdownSignal(int Sig) { GShutdownSignal = Sig; }

/// Serves one connection until the handler stops the server, the peer
/// goes away (Closed) or a signal arrives. \p ReadTimeoutMs < 0 blocks.
ServeExit requestLoop(LineChannel &Ch, int ReadTimeoutMs,
                      const LineHandler &Handle) {
  std::string Line;
  for (;;) {
    if (GShutdownSignal)
      return ServeExit::Signalled;
    switch (Ch.readLine(Line, ReadTimeoutMs)) {
    case LineChannel::ReadStatus::Line:
      break;
    case LineChannel::ReadStatus::Eof:
    case LineChannel::ReadStatus::Error:
      return ServeExit::Closed;
    case LineChannel::ReadStatus::Timeout:
      // Structured goodbye, then drop the connection: a silent peer must
      // not pin the accept loop forever.
      Ch.writeLine(errorLine("", "read timeout after " +
                                     std::to_string(ReadTimeoutMs) +
                                     "ms; closing connection"));
      return ServeExit::Closed;
    case LineChannel::ReadStatus::Overflow:
      Ch.writeLine(errorLine("", "request line exceeds " +
                                     std::to_string(Ch.maxLineBytes()) +
                                     " bytes; line dropped"));
      continue;
    case LineChannel::ReadStatus::Interrupted:
      continue; // loop top re-checks the signal flag
    }
    if (Line.empty() || Line[0] == '#')
      continue;
    if (!Handle(Line, Ch))
      return ServeExit::Shutdown;
  }
}

} // namespace

void installShutdownSignals() {
  struct sigaction SA {};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

ServeExit serveLines(const ListenSpec &Spec, size_t MaxLineBytes,
                     uint64_t ReadTimeoutMs, const LineHandler &Handle,
                     std::string &Err) {
  if (Spec.K == ListenSpec::Kind::Stdio) {
    LineChannel Ch(0, 1, /*OwnsFds=*/false, MaxLineBytes);
    return requestLoop(Ch, /*ReadTimeoutMs=*/-1, Handle);
  }
  Listener L;
  if (!Listener::open(Spec, L, Err))
    return ServeExit::ListenFailed;
  int ConnTimeout = ReadTimeoutMs ? static_cast<int>(ReadTimeoutMs) : -1;
  while (!GShutdownSignal) {
    bool TimedOut = false, Interrupted = false;
    LineChannel Ch =
        L.acceptChannel(/*TimeoutMs=*/500, TimedOut, Interrupted,
                        MaxLineBytes);
    if (!Ch.valid())
      continue; // timeout/EINTR: re-check the shutdown flag
    ServeExit Exit = requestLoop(Ch, ConnTimeout, Handle);
    if (Exit != ServeExit::Closed)
      return Exit;
    // Closed: the server outlives the connection; accept the next.
  }
  return ServeExit::Signalled;
}

} // namespace service
} // namespace optabs
