// A minimal blocking HTTP/1.1 client over loopback sockets, shared by the
// tests that drive a live HttpServer: connect, frame a request, write it
// fully, and read back either one Content-Length-framed response (keep-alive
// and pipelining) or everything up to EOF (`Connection: close`, SSE), and
// pick the body or one metric sample out of a reply.
#ifndef SMARTML_TESTS_LOOPBACK_CLIENT_H_
#define SMARTML_TESTS_LOOPBACK_CLIENT_H_

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

namespace smartml {

/// A socket connected to 127.0.0.1:`port`, or -1.
inline int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One request with a Content-Length header. `extra_headers` are complete
/// "Name: value\r\n" lines.
inline std::string BuildRequest(const std::string& method,
                                const std::string& path,
                                const std::string& body, bool close_connection,
                                const std::string& extra_headers = "") {
  std::string request = method + " " + path +
                        " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n" + extra_headers;
  if (close_connection) request += "Connection: close\r\n";
  request += "\r\n" + body;
  return request;
}

inline bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly one Content-Length-framed response from `fd`, consuming
/// bytes from `*pending` first (pipelined replies arrive back-to-back).
inline std::string ReadOneResponse(int fd, std::string* pending) {
  std::string& data = *pending;
  char buffer[4096];
  size_t expected = std::string::npos;
  for (;;) {
    if (expected == std::string::npos) {
      const size_t head_end = data.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        size_t content_length = 0;
        const size_t cl = data.find("Content-Length: ");
        if (cl != std::string::npos && cl < head_end) {
          content_length = static_cast<size_t>(
              std::strtoull(data.c_str() + cl + 16, nullptr, 10));
        }
        expected = head_end + 4 + content_length;
      }
    }
    if (expected != std::string::npos && data.size() >= expected) break;
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    data.append(buffer, static_cast<size_t>(n));
  }
  if (expected == std::string::npos || data.size() < expected) {
    std::string all = std::move(data);
    data.clear();
    return all;
  }
  std::string reply = data.substr(0, expected);
  data.erase(0, expected);
  return reply;
}

/// One request with `Connection: close`; reads until EOF, which is also how
/// SSE streams end. Returns the raw reply ("" when the connect fails).
inline std::string Fetch(int port, const std::string& method,
                         const std::string& path, const std::string& body = "",
                         const std::string& extra_headers = "") {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  WriteAll(fd, BuildRequest(method, path, body, /*close_connection=*/true,
                            extra_headers));
  std::string reply;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

/// The body of a raw reply (everything after the header block).
inline std::string BodyOf(const std::string& reply) {
  const size_t split = reply.find("\r\n\r\n");
  return split == std::string::npos ? "" : reply.substr(split + 4);
}

/// Value of a labelless sample in a GET /v1/metrics body, 0 when absent.
inline double CounterFrom(const std::string& exposition,
                          const std::string& name) {
  const size_t pos = exposition.find("\n" + name + " ");
  if (pos == std::string::npos) return 0.0;
  return std::atof(exposition.c_str() + pos + 1 + name.size() + 1);
}

}  // namespace smartml

#endif  // SMARTML_TESTS_LOOPBACK_CLIENT_H_
