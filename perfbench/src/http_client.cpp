#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/// Closes the descriptor on every exit path.
class Socket {
public:
    Socket() : fd_{::socket(AF_INET, SOCK_STREAM, 0)} {}
    ~Socket()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    int fd() const { return fd_; }

private:
    int fd_;
};

}  // namespace


HttpReply http_post(int port, const std::string& target,
                    const std::string& body)
{
    constexpr int timeout_ms = 60000;
    HttpReply reply;
    Socket sock;
    if (sock.fd() < 0) {
        return reply;
    }
    timeval timeout{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout,
                 sizeof(timeout));
    const int one = 1;
    ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        return reply;
    }

    std::string request = "POST " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Type: application/json\r\n"
                          "Content-Length: " +
                          std::to_string(body.size()) +
                          "\r\nConnection: close\r\n\r\n";
    request += body;
    std::size_t sent = 0;
    while (sent < request.size()) {
        const auto n = ::send(sock.fd(), request.data() + sent,
                              request.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return reply;
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buffer[65536];
    while (true) {
        const auto n = ::recv(sock.fd(), buffer, sizeof(buffer), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            break;
        }
        raw.append(buffer, static_cast<std::size_t>(n));
    }

    return parse_http_response(raw);
}


HttpReply parse_http_response(const std::string& raw)
{
    HttpReply reply;
    const auto header_end = raw.find("\r\n\r\n");
    const auto space = raw.find(' ');
    if (header_end == std::string::npos || space == std::string::npos) {
        return reply;
    }
    reply.status = std::atoi(raw.c_str() + space + 1);
    reply.body = raw.substr(header_end + 4);
    const char* length_key = "Content-Length:";
    const auto length_at = raw.find(length_key);
    if (length_at != std::string::npos && length_at < header_end) {
        const auto length = std::strtoull(
            raw.c_str() + length_at + std::strlen(length_key), nullptr, 10);
        reply.complete = reply.body.size() == length;
    }
    return reply;
}


}  // namespace perfbench
