#include "net/control_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "engine/host.hpp"

namespace witrack::net {

namespace {

constexpr std::size_t kMaxLineBytes = 1 << 16;

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw_errno("control: fcntl O_NONBLOCK");
}

/// Blocking write of the whole buffer, riding out EAGAIN on a socket that
/// is otherwise non-blocking. Response lines are small; a peer that stalls
/// its receive window for 5 s full seconds forfeits the connection.
bool write_all(int fd, const char* data, std::size_t len) {
    std::size_t done = 0;
    while (done < len) {
        const ssize_t wrote = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
        if (wrote > 0) {
            done += static_cast<std::size_t>(wrote);
            continue;
        }
        if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{fd, POLLOUT, 0};
            if (::poll(&pfd, 1, 5000) <= 0) return false;
            continue;
        }
        if (wrote < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

std::vector<std::string> split_words(const std::string& line) {
    std::vector<std::string> words;
    std::istringstream in(line);
    std::string word;
    while (in >> word) words.push_back(word);
    return words;
}

}  // namespace

ControlServer::ControlServer(engine::EngineHost& host, std::uint16_t port)
    : host_(host) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("control: socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    const sockaddr_in addr = loopback_addr(port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("control: listen 127.0.0.1:" + std::to_string(port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        const int saved = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        errno = saved;
        throw_errno("control: getsockname");
    }
    port_ = ntohs(bound.sin_port);
    set_nonblocking(listen_fd_);

    register_command("PING", [](const std::vector<std::string>&) {
        return std::string("OK pong");
    });
    register_command("STATS", [this](const std::vector<std::string>&) {
        return "OK " + engine::to_json(host_.take_fleet_stats());
    });
    register_command("HEALTH", [this](const std::vector<std::string>&) {
        return "OK " + engine::to_json(host_.session_health());
    });
    register_command("PAUSE", [this](const std::vector<std::string>& argv) {
        engine::SessionId id = 0;
        if (argv.size() != 1 || !parse_u64(argv[0], id))
            return std::string("ERR usage: PAUSE <id>");
        if (host_.session(id) == nullptr)
            return "ERR unknown session " + argv[0];
        host_.pause(id);
        return "OK paused " + argv[0];
    });
    register_command("RESUME", [this](const std::vector<std::string>& argv) {
        engine::SessionId id = 0;
        if (argv.size() != 1 || !parse_u64(argv[0], id))
            return std::string("ERR usage: RESUME <id>");
        if (host_.session(id) == nullptr)
            return "ERR unknown session " + argv[0];
        host_.resume(id);
        return "OK resumed " + argv[0];
    });
    register_command("EVICT", [this](const std::vector<std::string>& argv) {
        engine::SessionId id = 0;
        if (argv.empty() || !parse_u64(argv[0], id))
            return std::string("ERR usage: EVICT <id> [reason...]");
        std::string reason = "control plane eviction";
        if (argv.size() > 1) {
            reason.clear();
            for (std::size_t i = 1; i < argv.size(); ++i) {
                if (i > 1) reason += ' ';
                reason += argv[i];
            }
        }
        if (!host_.evict(id, reason))
            return std::string("ERR session unknown or already terminal");
        return "OK evicted " + argv[0];
    });
    register_command("CHECKPOINT", [this](const std::vector<std::string>& argv) {
        engine::SessionId id = 0;
        if (argv.size() != 2 || !parse_u64(argv[0], id))
            return std::string("ERR usage: CHECKPOINT <id> <path>");
        std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
        if (!out) return "ERR cannot open " + argv[1];
        host_.checkpoint_session(id, out);
        out.flush();
        if (!out) return "ERR short write to " + argv[1];
        return "OK checkpointed " + argv[0] + " " + argv[1];
    });
}

ControlServer::~ControlServer() {
    for (Connection& connection : connections_)
        if (connection.fd >= 0) ::close(connection.fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ControlServer::register_command(std::string name, Handler handler) {
    commands_[std::move(name)] = std::move(handler);
}

std::string ControlServer::dispatch(const std::string& line) {
    std::vector<std::string> words = split_words(line);
    if (words.empty()) return "ERR empty request";
    const auto it = commands_.find(words[0]);
    if (it == commands_.end()) return "ERR unknown command " + words[0];
    words.erase(words.begin());
    try {
        return it->second(words);
    } catch (const std::exception& error) {
        return std::string("ERR ") + error.what();
    }
}

void ControlServer::serve(Connection& connection) {
    char buffer[4096];
    bool eof = false;
    while (!eof) {
        const ssize_t got = ::recv(connection.fd, buffer, sizeof buffer, 0);
        if (got > 0) {
            connection.inbox.append(buffer, static_cast<std::size_t>(got));
            if (connection.inbox.size() > kMaxLineBytes) {
                connection.dead = true;  // request line absurdly long
                return;
            }
            continue;
        }
        if (got == 0) {
            eof = true;  // serve any final complete lines, then close
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        connection.dead = true;
        return;
    }
    std::size_t start = 0;
    for (;;) {
        const std::size_t end = connection.inbox.find('\n', start);
        if (end == std::string::npos) break;
        std::string line = connection.inbox.substr(start, end - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        start = end + 1;
        std::string response = dispatch(line);
        response += '\n';
        ++served_;
        if (!write_all(connection.fd, response.data(), response.size())) {
            connection.dead = true;
            return;
        }
    }
    connection.inbox.erase(0, start);
    if (eof) connection.dead = true;
}

std::size_t ControlServer::poll(int timeout_ms) {
    std::vector<pollfd> pfds;
    pfds.reserve(connections_.size() + 1);
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Connection& connection : connections_)
        pfds.push_back({connection.fd, POLLIN, 0});
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0) {
        if (errno == EINTR) return 0;
        throw_errno("control: poll");
    }

    const std::size_t before = served_;
    if ((pfds[0].revents & POLLIN) != 0) {
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) break;  // EAGAIN et al.: accepted everything pending
            set_nonblocking(fd);
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            connections_.push_back(Connection{fd, {}, false});
        }
    }
    for (std::size_t i = 0; i < connections_.size() && i + 1 < pfds.size(); ++i) {
        Connection& connection = connections_[i];
        const short events = pfds[i + 1].revents;
        if ((events & (POLLIN | POLLHUP | POLLERR)) != 0) serve(connection);
    }
    std::erase_if(connections_, [](Connection& connection) {
        if (!connection.dead) return false;
        ::close(connection.fd);
        return true;
    });
    return served_ - before;
}

// --------------------------------------------------------- ControlClient

ControlClient::ControlClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw_errno("control client: socket");
    const sockaddr_in addr = loopback_addr(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        errno = saved;
        throw_errno("control client: connect 127.0.0.1:" + std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_nonblocking(fd_);
}

ControlClient::~ControlClient() {
    if (fd_ >= 0) ::close(fd_);
}

void ControlClient::send(const std::string& line) {
    std::string request = line;
    request += '\n';
    if (!write_all(fd_, request.data(), request.size()))
        throw std::runtime_error("control client: send failed");
}

bool ControlClient::try_receive(std::string& line) {
    for (;;) {
        const std::size_t end = inbox_.find('\n');
        if (end != std::string::npos) {
            line = inbox_.substr(0, end);
            inbox_.erase(0, end + 1);
            return true;
        }
        char buffer[4096];
        const ssize_t got = ::recv(fd_, buffer, sizeof buffer, 0);
        if (got > 0) {
            inbox_.append(buffer, static_cast<std::size_t>(got));
            continue;
        }
        if (got == 0) throw std::runtime_error("control client: server hung up");
        if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
        if (errno == EINTR) continue;
        throw_errno("control client: recv");
    }
}

std::string ControlClient::request(const std::string& line, int timeout_ms) {
    send(line);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::string response;
    while (!try_receive(response)) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            throw std::runtime_error("control client: request timed out: " + line);
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
        if (ready < 0 && errno != EINTR) throw_errno("control client: poll");
    }
    return response;
}

}  // namespace witrack::net
