#include "common/frame_io.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/str_util.h"

namespace prore {

namespace {

using Clock = std::chrono::steady_clock;

/// Cancellation is checked between poll slices, so a wait never sleeps
/// longer than this without looking at the token.
constexpr uint64_t kPollSliceMs = 50;

/// Milliseconds until `deadline`, clamped to [0, slice]. INT64_MAX acts as
/// "no deadline".
int SliceMs(Clock::time_point deadline, bool has_deadline) {
  if (!has_deadline) return static_cast<int>(kPollSliceMs);
  auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                       deadline - Clock::now())
                       .count();
  if (remaining <= 0) return 0;
  return static_cast<int>(
      std::min<int64_t>(remaining, static_cast<int64_t>(kPollSliceMs)));
}

enum class WaitOutcome { kReady, kTimeout, kCancelled, kError };

/// Polls `fd` for `events` until ready, deadline, or cancellation.
WaitOutcome WaitFd(int fd, short events, Clock::time_point deadline,
                   bool has_deadline, const CancellationToken& cancel,
                   std::string* detail) {
  while (true) {
    if (cancel.Cancelled()) return WaitOutcome::kCancelled;
    if (has_deadline && Clock::now() >= deadline) return WaitOutcome::kTimeout;
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, SliceMs(deadline, has_deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      *detail = ::strerror(errno);
      return WaitOutcome::kError;
    }
    if (rc == 0) continue;  // slice elapsed; re-check cancel/deadline
    // Readable/writable includes EOF and error conditions: let the actual
    // read()/send() discover which, so there is exactly one place that
    // interprets errno.
    return WaitOutcome::kReady;
  }
}

/// Reads exactly `len` bytes into `buf`. `got` reports progress on the
/// failure paths (0 got + EOF = clean close; >0 = truncation).
FrameEvent ReadExact(int fd, char* buf, size_t len, size_t* got,
                     Clock::time_point deadline, bool has_deadline,
                     const CancellationToken& cancel, std::string* detail) {
  *got = 0;
  while (*got < len) {
    std::string wait_detail;
    switch (WaitFd(fd, POLLIN, deadline, has_deadline, cancel, &wait_detail)) {
      case WaitOutcome::kReady:
        break;
      case WaitOutcome::kTimeout:
        return FrameEvent::kTimeout;
      case WaitOutcome::kCancelled:
        return FrameEvent::kCancelled;
      case WaitOutcome::kError:
        *detail = std::move(wait_detail);
        return FrameEvent::kError;
    }
    ssize_t n = ::read(fd, buf + *got, len - *got);
    if (n == 0) return *got == 0 ? FrameEvent::kEof : FrameEvent::kTruncated;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      *detail = ::strerror(errno);
      // A reset mid-frame is the network flavor of truncation.
      if (errno == ECONNRESET) {
        return *got == 0 ? FrameEvent::kEof : FrameEvent::kTruncated;
      }
      return FrameEvent::kError;
    }
    *got += static_cast<size_t>(n);
  }
  return FrameEvent::kFrame;
}

}  // namespace

FrameReadResult ReadFrame(int fd, const FrameIoOptions& options) {
  FrameReadResult out;

  // Phase 1: the first prefix byte, under the idle budget.
  const bool has_idle = options.idle_timeout_ms != 0;
  Clock::time_point idle_deadline =
      Clock::now() + std::chrono::milliseconds(options.idle_timeout_ms);
  char prefix[4];
  size_t got = 0;
  FrameEvent ev = ReadExact(fd, prefix, 1, &got, idle_deadline, has_idle,
                            options.cancel, &out.detail);
  if (ev != FrameEvent::kFrame) {
    out.event = ev;
    return out;
  }

  // Phase 2: everything else, under the per-frame (slowloris) budget.
  const bool has_frame = options.frame_timeout_ms != 0;
  Clock::time_point frame_deadline =
      Clock::now() + std::chrono::milliseconds(options.frame_timeout_ms);
  ev = ReadExact(fd, prefix + 1, 3, &got, frame_deadline, has_frame,
                 options.cancel, &out.detail);
  if (ev != FrameEvent::kFrame) {
    // EOF with a partial prefix already consumed is a truncation.
    out.event = ev == FrameEvent::kEof ? FrameEvent::kTruncated : ev;
    return out;
  }

  uint64_t len = (static_cast<uint64_t>(static_cast<unsigned char>(prefix[0]))
                  << 24) |
                 (static_cast<uint64_t>(static_cast<unsigned char>(prefix[1]))
                  << 16) |
                 (static_cast<uint64_t>(static_cast<unsigned char>(prefix[2]))
                  << 8) |
                 static_cast<uint64_t>(static_cast<unsigned char>(prefix[3]));
  if (len > options.max_frame_bytes) {
    out.event = FrameEvent::kOversized;
    out.detail = StrFormat("declared %llu bytes, limit %zu",
                           static_cast<unsigned long long>(len),
                           options.max_frame_bytes);
    return out;
  }

  out.payload.resize(static_cast<size_t>(len));
  if (len > 0) {
    ev = ReadExact(fd, out.payload.data(), out.payload.size(), &got,
                   frame_deadline, has_frame, options.cancel, &out.detail);
    if (ev != FrameEvent::kFrame) {
      out.payload.clear();
      out.event = ev == FrameEvent::kEof ? FrameEvent::kTruncated : ev;
      return out;
    }
  }
  out.event = FrameEvent::kFrame;
  return out;
}

Status WriteFrame(int fd, std::string_view payload,
                  const FrameIoOptions& options) {
  if (payload.size() > options.max_frame_bytes) {
    return Status::InvalidArgument(
        StrFormat("frame payload %zu exceeds limit %zu", payload.size(),
                  options.max_frame_bytes));
  }
  char prefix[4];
  prefix[0] = static_cast<char>((payload.size() >> 24) & 0xff);
  prefix[1] = static_cast<char>((payload.size() >> 16) & 0xff);
  prefix[2] = static_cast<char>((payload.size() >> 8) & 0xff);
  prefix[3] = static_cast<char>(payload.size() & 0xff);

  const bool has_deadline = options.frame_timeout_ms != 0;
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.frame_timeout_ms);

  auto write_all = [&](const char* buf, size_t len) -> Status {
    size_t sent = 0;
    while (sent < len) {
      std::string detail;
      switch (WaitFd(fd, POLLOUT, deadline, has_deadline, options.cancel,
                     &detail)) {
        case WaitOutcome::kReady:
          break;
        case WaitOutcome::kTimeout:
          return Status::ResourceExhausted("frame write timed out");
        case WaitOutcome::kCancelled:
          return Status::Cancelled("frame write cancelled");
        case WaitOutcome::kError:
          return Status::Internal("frame write poll: " + detail);
      }
      // send() lets us suppress SIGPIPE per call; fall back to write() for
      // non-socket fds (pipes in tests).
      ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) n = ::write(fd, buf + sent, len - sent);
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return Status::Internal(StrFormat("frame write: %s",
                                          ::strerror(errno)));
      }
      sent += static_cast<size_t>(n);
    }
    return Status::OK();
  };

  PRORE_RETURN_IF_ERROR(write_all(prefix, 4));
  return write_all(payload.data(), payload.size());
}

}  // namespace prore
