// Byte-stream transports for the federation wire protocol. Two
// implementations behind one Stream interface:
//
//   make_loopback_pair()  an in-memory, mutex+condvar byte pipe — the
//                         deterministic test transport (no sockets, no
//                         ports, works under every sanitizer).
//   TcpListener /         POSIX TCP. The listener binds 127.0.0.1 (port 0
//   tcp_connect()         = kernel-assigned, read back via port()) and
//                         accept()s one Stream per edge worker process.
//
// FrameChannel marries a Stream to the wire format: send() frames and
// writes atomically under a mutex (the heartbeat thread and the round
// loop share the channel), recv() pumps the FrameDecoder until a full
// frame, a clean EOF (nullopt), or a framing error (CorruptStream —
// including EOF mid-frame, which is a truncation, not a close).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "util/common.hpp"

namespace fedsz::net {

/// Transport-layer failure (connect refused, peer reset, short write...).
/// Distinct from CorruptStream: the bytes were fine, the pipe was not.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A reliable, ordered byte stream. Implementations must allow one reader
/// and one writer thread concurrently; neither call is poll-based.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Write all of `data` (blocking). Throws TransportError on failure.
  virtual void write_all(ByteSpan data) = 0;
  /// Read at least 1 and at most `capacity` bytes into `out` (blocking).
  /// Returns 0 on end-of-stream (peer closed). Throws TransportError.
  virtual std::size_t read_some(std::uint8_t* out, std::size_t capacity) = 0;
  /// Close both directions; unblocks a peer blocked in read_some, and a
  /// local reader too. Safe to call while another thread reads or writes:
  /// resources are released only by the destructor.
  virtual void close() = 0;
};

using StreamPtr = std::shared_ptr<Stream>;

/// An in-memory full-duplex pipe: bytes written to `first` are read from
/// `second` and vice versa. Closing either end EOFs the other.
std::pair<StreamPtr, StreamPtr> make_loopback_pair();

/// One listening TCP socket on 127.0.0.1. Port 0 asks the kernel for a
/// free port — read the real one back with port() before spawning workers.
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }
  /// Block until one connection arrives. Throws TransportError.
  StreamPtr accept();
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connect to `host`:`port` (blocking). Retries briefly on refusal so a
/// worker can race the root's listen(); throws TransportError after that.
StreamPtr tcp_connect(const std::string& host, std::uint16_t port);

/// A framed message channel over a Stream: the wire protocol's sender and
/// receiver sides. send() is thread-safe (one frame at a time hits the
/// stream); recv() must stay single-threaded.
class FrameChannel {
 public:
  explicit FrameChannel(StreamPtr stream,
                        std::size_t max_payload = kMaxFramePayload);

  void send(FrameType type, ByteSpan payload);
  /// The next frame, nullopt on a clean EOF between frames. EOF mid-frame
  /// or any framing/CRC violation throws CorruptStream.
  std::optional<Frame> recv();
  void close() { stream_->close(); }

 private:
  StreamPtr stream_;
  FrameDecoder decoder_;
  std::mutex send_mutex_;
};

}  // namespace fedsz::net
