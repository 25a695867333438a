#include "net/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <thread>

namespace fedsz::net {

namespace {

[[noreturn]] void transport_fail(const std::string& what) {
  throw TransportError("transport: " + what + ": " + std::strerror(errno));
}

// ---- in-memory loopback ----

/// One direction of the loopback pipe: a bounded-unbounded byte queue.
/// (Unbounded is fine here: the protocol is request/response with one
/// partial in flight per edge, so queues stay a few frames deep.)
struct LoopbackQueue {
  std::mutex mutex;
  std::condition_variable readable;
  std::deque<std::uint8_t> bytes;
  bool closed = false;

  void write(ByteSpan data) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) throw TransportError("transport: loopback peer closed");
      bytes.insert(bytes.end(), data.begin(), data.end());
    }
    readable.notify_all();
  }

  std::size_t read(std::uint8_t* out, std::size_t capacity) {
    std::unique_lock<std::mutex> lock(mutex);
    readable.wait(lock, [this] { return !bytes.empty() || closed; });
    if (bytes.empty()) return 0;  // closed and drained: EOF
    const std::size_t take = std::min(capacity, bytes.size());
    for (std::size_t i = 0; i < take; ++i) {
      out[i] = bytes.front();
      bytes.pop_front();
    }
    return take;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    readable.notify_all();
  }
};

class LoopbackStream final : public Stream {
 public:
  LoopbackStream(std::shared_ptr<LoopbackQueue> in,
                 std::shared_ptr<LoopbackQueue> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LoopbackStream() override { close(); }

  void write_all(ByteSpan data) override { out_->write(data); }
  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override {
    return in_->read(out, capacity);
  }
  void close() override {
    in_->close();
    out_->close();
  }

 private:
  std::shared_ptr<LoopbackQueue> in_;
  std::shared_ptr<LoopbackQueue> out_;
};

// ---- POSIX TCP ----

class TcpStream final : public Stream {
 public:
  explicit TcpStream(int fd) : fd_(fd) {
    // One frame per send() and latency-sensitive heartbeats: disable
    // Nagle so small frames leave immediately.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  // The fd is released only here, once every thread that could still be
  // blocked on it has been joined: a number freed while a reader sits in
  // recv() could be reused by the next accept/open under that reader.
  ~TcpStream() override {
    close();
    ::close(fd_);
  }

  void write_all(ByteSpan data) override {
    const std::uint8_t* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      // MSG_NOSIGNAL: a peer reset surfaces as EPIPE, not a process-fatal
      // SIGPIPE from inside the library.
      const ssize_t sent = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        transport_fail("send failed");
      }
      p += sent;
      left -= static_cast<std::size_t>(sent);
    }
  }

  std::size_t read_some(std::uint8_t* out, std::size_t capacity) override {
    while (true) {
      const ssize_t got = ::recv(fd_, out, capacity, 0);
      if (got < 0) {
        if (errno == EINTR) continue;
        transport_fail("recv failed");
      }
      return static_cast<std::size_t>(got);
    }
  }

  // Wakes a blocked reader (EOF) and sends FIN to the peer; the fd itself
  // stays open until destruction.
  void close() override { ::shutdown(fd_, SHUT_RDWR); }

 private:
  const int fd_;
};

}  // namespace

std::pair<StreamPtr, StreamPtr> make_loopback_pair() {
  auto a_to_b = std::make_shared<LoopbackQueue>();
  auto b_to_a = std::make_shared<LoopbackQueue>();
  return {std::make_shared<LoopbackStream>(b_to_a, a_to_b),
          std::make_shared<LoopbackStream>(a_to_b, b_to_a)};
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) transport_fail("socket failed");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what =
        "bind to 127.0.0.1:" + std::to_string(port) + " failed";
    ::close(fd_);
    fd_ = -1;
    transport_fail(what);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    fd_ = -1;
    transport_fail("getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    transport_fail("listen failed");
  }
}

TcpListener::~TcpListener() { close(); }

StreamPtr TcpListener::accept() {
  if (fd_ < 0) throw TransportError("transport: listener closed");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      transport_fail("accept failed");
    }
    return std::make_shared<TcpStream>(fd);
  }
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StreamPtr tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw TransportError("transport: bad IPv4 address '" + host + "'");
  // An edge worker may win the race against the root's listen(); retry
  // refusals for a few seconds before giving up.
  constexpr int kAttempts = 50;
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) transport_fail("socket failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return std::make_shared<TcpStream>(fd);
    const int saved = errno;
    ::close(fd);
    if ((saved != ECONNREFUSED && saved != ETIMEDOUT) ||
        attempt + 1 >= kAttempts) {
      errno = saved;
      transport_fail("connect to " + host + ":" + std::to_string(port) +
                     " failed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

FrameChannel::FrameChannel(StreamPtr stream, std::size_t max_payload)
    : stream_(std::move(stream)), decoder_(max_payload) {
  if (!stream_) throw InvalidArgument("FrameChannel: null stream");
}

void FrameChannel::send(FrameType type, ByteSpan payload) {
  const Bytes frame = encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(send_mutex_);
  stream_->write_all({frame.data(), frame.size()});
}

std::optional<Frame> FrameChannel::recv() {
  while (true) {
    if (std::optional<Frame> frame = decoder_.next()) return frame;
    std::uint8_t buffer[1 << 16];
    const std::size_t got = stream_->read_some(buffer, sizeof(buffer));
    if (got == 0) {
      if (decoder_.mid_frame())
        throw CorruptStream("wire: stream ended mid-frame");
      return std::nullopt;
    }
    decoder_.feed({buffer, got});
  }
}

}  // namespace fedsz::net
