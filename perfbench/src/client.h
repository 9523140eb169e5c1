// Minimal blocking HTTP/1.1 client for driving the SmartML server over
// loopback: one keep-alive connection per client loop, plus one short-lived
// connection per server-sent-event stream.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <chrono>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 = transport failure (see `error`).
  std::string body;
  std::string error;
  /// When the reply (for event streams: the terminal event) was read.
  std::chrono::steady_clock::time_point at;
};

class HttpConnection {
 public:
  explicit HttpConnection(int port) : port_(port) {}
  ~HttpConnection() { Close(); }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and reads the Content-Length framed reply. The
  /// connection is reopened when the server closed it or it sat idle long
  /// enough for the server's keep-alive timeout to be near.
  HttpReply Request(const std::string& method, const std::string& target,
                    const std::string& body = "",
                    const std::string& content_type = "");

  /// Wire bytes of the last request sent (for replaying the parse layer).
  const std::string& last_request() const { return last_request_; }

 private:
  bool Connect(std::string* error);
  void Close();

  int port_;
  int fd_ = -1;
  std::chrono::steady_clock::time_point last_used_;
  std::string last_request_;
};

/// Opens `target` (an SSE endpoint) on a fresh connection and reads frames
/// until the "terminal" event; returns that event's data line as the body.
/// The server ends the stream after the terminal event, so the connection
/// is read to EOF and the server closes first.
HttpReply WaitForTerminalEvent(int port, const std::string& target);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
