// Minimal loopback HTTP/1.1 client for driving serve::SolveServer over real
// sockets: one request per connection, as the server answers with
// "Connection: close".
#pragma once

#include <string>

namespace perfbench {


struct HttpReply {
    int status{0};
    std::string body;
    /// True when the body holds exactly the Content-Length bytes announced.
    bool complete{false};
};

/// Parses a complete raw HTTP response (status line, headers, body).
HttpReply parse_http_response(const std::string& raw);

/// POSTs `body` to 127.0.0.1:port/target and reads the whole response.
/// A connection or socket failure returns status 0; a reply cut short,
/// also by the one-minute socket timeout, is not `complete`.
HttpReply http_post(int port, const std::string& target,
                    const std::string& body);


}  // namespace perfbench
