/**
 * @file
 * Minimal TCP transport for the distributed campaign service.
 *
 * The service needs exactly four things from the network: a listening
 * socket with timeout-bounded accept, a client connect with retry
 * support, reliable whole-buffer send/recv, and a way to wake a
 * thread blocked on a peer (shutdown). This wrapper provides them
 * over plain POSIX sockets — no external dependencies — and reports
 * every failure as a NetError so callers never check errno.
 *
 * Sockets are blocking; timeouts are implemented with poll(2) before
 * the blocking call (waitReadable), which is enough for the
 * request/response shape of the campaign protocol. All writes use
 * MSG_NOSIGNAL: a dead peer surfaces as a NetError, never SIGPIPE.
 */

#ifndef DARCO_NET_SOCKET_HH
#define DARCO_NET_SOCKET_HH

#include <optional>
#include <stdexcept>
#include <string>

#include "common/types.hh"

namespace darco::net
{

/** Raised on any socket-layer failure (connect, send, framing, ...). */
class NetError : public std::runtime_error
{
  public:
    explicit NetError(const std::string &what)
        : std::runtime_error("net: " + what)
    {}
};

/**
 * RAII TCP socket (move-only). A default-constructed Socket is
 * invalid; valid sockets come from Listener::accept or connectTo.
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    Socket &
    operator=(Socket &&other) noexcept
    {
        if (this != &other) {
            close();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    void close();

    /** Send exactly `len` bytes; throws NetError on any failure. */
    void sendAll(const void *data, std::size_t len);

    /**
     * Receive exactly `len` bytes.
     * @return false on a clean EOF *before the first byte* (the peer
     *         closed between messages); a mid-buffer EOF or any error
     *         throws NetError (truncated message).
     */
    bool recvAll(void *data, std::size_t len);

    /**
     * Wait until the socket is readable (data or EOF pending).
     * @param timeout_ms  negative = wait forever.
     * @return true when readable, false on timeout.
     */
    bool waitReadable(int timeout_ms);

  private:
    int fd_ = -1;
};

/**
 * Listening TCP socket bound to `bindAddr:port` (port 0 picks an
 * ephemeral port — read it back with port()). SO_REUSEADDR is set so
 * quick restarts of the coordinator do not fight TIME_WAIT.
 */
class Listener
{
  public:
    Listener(const std::string &bindAddr, u16 port);

    u16 port() const { return port_; }
    bool valid() const { return sock_.valid(); }

    /**
     * Accept one connection, waiting at most `timeout_ms`
     * (negative = forever). Empty on timeout or after close().
     */
    std::optional<Socket> accept(int timeout_ms);

    /** Stop accepting; wakes a blocked accept() with empty. */
    void close() { sock_.close(); }

  private:
    Socket sock_;
    u16 port_ = 0;
};

/**
 * Connect to `host:port`, waiting at most `timeout_ms` for the
 * connection to establish. Throws NetError on failure.
 */
Socket connectTo(const std::string &host, u16 port, int timeout_ms);

} // namespace darco::net

#endif // DARCO_NET_SOCKET_HH
