#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

// Longest a client waits on one read: far above any run in the workloads,
// so only a hung server trips it.
constexpr int kReadTimeoutSeconds = 150;
// The server closes keep-alive connections idle for 5 s; reconnect well
// before that instead of racing the close.
constexpr double kMaxIdleSeconds = 1.0;

int OpenSocket(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = kReadTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data, std::string* error) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Appends whatever one recv() yields; false on EOF or error.
bool RecvSome(int fd, std::string* buffer, std::string* error) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

struct Head {
  int status = 0;
  long long content_length = -1;
  bool close = false;
  size_t body_offset = 0;
};

// Parses the status line and headers once `buffer` holds the full head.
bool ParseHead(const std::string& buffer, Head* head) {
  const size_t end = buffer.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  head->body_offset = end + 4;
  const size_t line_end = buffer.find("\r\n");
  const std::string status_line = buffer.substr(0, line_end);
  const size_t space = status_line.find(' ');
  head->status = space == std::string::npos
                     ? 0
                     : std::atoi(status_line.c_str() + space + 1);
  size_t pos = line_end + 2;
  while (pos < end) {
    const size_t next = buffer.find("\r\n", pos);
    const std::string line = buffer.substr(pos, next - pos);
    pos = next + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = Lower(line.substr(0, colon));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "content-length") {
      head->content_length = std::atoll(value.c_str());
    } else if (key == "connection") {
      head->close = Lower(value) == "close";
    }
  }
  return true;
}

}  // namespace

bool HttpConnection::Connect(std::string* error) {
  Close();
  fd_ = OpenSocket(port_, error);
  return fd_ >= 0;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

HttpReply HttpConnection::Request(const std::string& method,
                                  const std::string& target,
                                  const std::string& body,
                                  const std::string& content_type) {
  HttpReply reply;
  const auto now = std::chrono::steady_clock::now();
  if (fd_ >= 0 && std::chrono::duration<double>(now - last_used_).count() >
                      kMaxIdleSeconds) {
    Close();
  }
  if (fd_ < 0 && !Connect(&reply.error)) return reply;

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\n";
  if (!content_type.empty()) {
    request += "Content-Type: " + content_type + "\r\n";
  }
  if (method == "POST" || !body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  last_request_ = request;
  if (!SendAll(fd_, request, &reply.error)) {
    Close();
    return reply;
  }

  std::string buffer;
  Head head;
  while (!ParseHead(buffer, &head)) {
    if (!RecvSome(fd_, &buffer, &reply.error)) {
      Close();
      return reply;
    }
  }
  if (head.content_length < 0) {
    reply.error = "reply without Content-Length";
    Close();
    return reply;
  }
  const size_t total =
      head.body_offset + static_cast<size_t>(head.content_length);
  while (buffer.size() < total) {
    if (!RecvSome(fd_, &buffer, &reply.error)) {
      Close();
      return reply;
    }
  }
  reply.status = head.status;
  reply.body = buffer.substr(head.body_offset,
                             static_cast<size_t>(head.content_length));
  last_used_ = reply.at = std::chrono::steady_clock::now();
  if (head.close) Close();
  return reply;
}

HttpReply WaitForTerminalEvent(int port, const std::string& target) {
  HttpReply reply;
  const int fd = OpenSocket(port, &reply.error);
  if (fd < 0) return reply;
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Accept: text/event-stream\r\n\r\n";
  if (!SendAll(fd, request, &reply.error)) {
    ::close(fd);
    return reply;
  }
  std::string buffer;
  Head head;
  size_t scan = 0;
  bool have_head = false;
  bool terminal = false;
  for (;;) {
    if (!have_head && ParseHead(buffer, &head)) {
      have_head = true;
      scan = head.body_offset;
      if (head.status != 200) break;
    }
    while (have_head && !terminal) {
      const size_t frame_end = buffer.find("\n\n", scan);
      if (frame_end == std::string::npos) break;
      const std::string frame = buffer.substr(scan, frame_end - scan);
      scan = frame_end + 2;
      if (frame.find("event: terminal") == std::string::npos) continue;
      const size_t data = frame.find("data: ");
      if (data != std::string::npos) {
        reply.body = frame.substr(data + 6, frame.find('\n', data) - data - 6);
      }
      reply.at = std::chrono::steady_clock::now();
      terminal = true;
    }
    std::string error;
    if (!RecvSome(fd, &buffer, &error)) {
      if (!terminal) reply.error = error;
      break;
    }
  }
  ::close(fd);
  if (terminal) reply.status = head.status;
  if (have_head && head.status != 200) {
    reply.status = head.status;
    reply.body = buffer.substr(head.body_offset);
  }
  return reply;
}

}  // namespace perfbench
