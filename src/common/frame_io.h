#ifndef PRORE_COMMON_FRAME_IO_H_
#define PRORE_COMMON_FRAME_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/status.h"

namespace prore {

/// Length-prefixed framing over a socket/pipe fd: every frame is a 4-byte
/// big-endian payload length followed by the payload bytes. The reader is
/// defensive by construction — it is the first thing an untrusted peer
/// talks to, so every way a frame can go wrong maps to a distinct event
/// the caller can act on without the process ever seeing a torn buffer:
///
///  - kEof        clean close at a frame boundary (normal connection end)
///  - kTruncated  close mid-prefix or mid-payload (peer died or lied)
///  - kOversized  declared length exceeds max_frame_bytes; nothing past the
///                prefix is read, so the caller can reply and close without
///                buffering an attacker-chosen allocation
///  - kTimeout    first-byte (idle) or whole-frame (slowloris) budget hit
///  - kCancelled  the CancellationToken fired mid-read
///  - kError      errno-level failure (reset, bad fd)
///
/// All waiting is poll()-based in short slices so a cancellation fires
/// within ~50ms even with no fd activity, and the fd never needs to be
/// non-blocking for reads to honor deadlines.
struct FrameIoOptions {
  /// Hard cap on a single frame's payload. Oversized declarations are
  /// rejected before any payload byte is read.
  size_t max_frame_bytes = 8u << 20;
  /// How long to wait for the first byte of the next frame (connection
  /// idle timeout); 0 = forever (until cancel/EOF).
  uint64_t idle_timeout_ms = 0;
  /// Budget for the remainder of a frame once its first byte arrived —
  /// the slowloss/slowloris bound. 0 = unlimited.
  uint64_t frame_timeout_ms = 0;
  CancellationToken cancel;
};

enum class FrameEvent {
  kFrame,      ///< payload holds one complete frame
  kEof,        ///< clean close at a frame boundary
  kTruncated,  ///< close inside a frame
  kOversized,  ///< declared length > max_frame_bytes
  kTimeout,    ///< idle or per-frame deadline hit
  kCancelled,  ///< options.cancel fired
  kError,      ///< errno-level read failure (detail has strerror)
};

struct FrameReadResult {
  FrameEvent event = FrameEvent::kError;
  std::string payload;  ///< kFrame only
  std::string detail;   ///< diagnostic text for the failure events
};

/// Reads one frame. Never throws; never reads past the end of the frame
/// it returns (kOversized additionally stops right after the prefix).
FrameReadResult ReadFrame(int fd, const FrameIoOptions& options);

/// Writes one frame (prefix + payload), handling partial writes. SIGPIPE
/// is suppressed (MSG_NOSIGNAL; plain write() for non-socket fds). A
/// non-OK status means the connection is unusable: kCancelled (token
/// fired), kResourceExhausted (frame_timeout_ms spent mid-write), or
/// kInternal (peer reset / errno failure).
Status WriteFrame(int fd, std::string_view payload,
                  const FrameIoOptions& options);

}  // namespace prore

#endif  // PRORE_COMMON_FRAME_IO_H_
