// Control operations (paper, Section 2).
//
// "Both protocol and session objects support a control(opcode,buffer,length)
// operation ... used to read and set certain object-dependent parameters."
// The paper's Discussion notes that "a relatively small number of control
// operations is sufficient; i.e., on the order of two dozen" -- this is that
// set for our protocol suite.
//
// Instead of an untyped (buffer, length) pair we pass a small in/out struct;
// each opcode documents which slots it reads and writes.

#ifndef XK_SRC_CORE_CONTROL_H_
#define XK_SRC_CORE_CONTROL_H_

#include <cstdint>

#include "src/core/types.h"

namespace xk {

enum class ControlOp : uint8_t {
  // --- packet sizes ----------------------------------------------------------
  kGetMaxPacket,    // out u64: largest message the object can carry (MTU)
  kGetOptPacket,    // out u64: largest message carried without fragmentation
  kGetMaxSendSize,  // out u64: largest message a HIGH-level protocol will push
                    // (VIP asks its client this at open time; Section 3.1)

  // --- addresses -------------------------------------------------------------
  kGetMyHost,       // out ip
  kGetPeerHost,     // out ip
  kGetMyHostEth,    // out eth
  kGetPeerHostEth,  // out eth
  kGetMyProto,      // out u64: protocol number this session sends as
  kGetPeerProto,    // out u64
  kGetMyPort,       // out u64
  kGetPeerPort,     // out u64

  // --- resolution (ARP) -------------------------------------------------------
  kResolve,         // in ip, out eth: cache-only IP->Ethernet resolution
  kResolveTest,     // in ip, out u64(bool): is the host resolvable (cached)?
  kAddResolveEntry, // in ip + eth: install a static cache entry

  // --- routing ----------------------------------------------------------------
  kAddRoute,        // in ip (dest subnet) + ip2 (gateway)
  kSetDefaultGateway,  // in ip

  // --- RPC --------------------------------------------------------------------
  kGetBootId,          // out u64
  kGetLastCommand,     // out u64: command of the request a server session holds
  kGetFreeChannels,    // out u64: channels not currently in use
  kSetRetransmitLimit, // in u64
  kSetTimeoutBase,     // in u64: base retransmit timeout, nanoseconds
  kSetAdaptiveTimeout, // in u64(bool): SRTT/RTTVAR adaptive RTO instead of the
                       // paper's step-function timeout (default off)
  kFlushSessions,      // drop idle cached lower sessions (connection churn);
                       // out u64: sessions actually dropped

  // --- overload control --------------------------------------------------------
  kSetRetryBudget,     // in u64: packed burst<<32 | retry_ratio_ppm. Installs a
                       // per-stack retransmit token bucket on CHANNEL (0 ppm =
                       // disabled, the default). See README "Overload control".
  kSetAdmissionLimit,  // in u64: packed max_inflight<<32 | max_backlog_us.
                       // Bounds the RpcServer run queue; 0/0 = unbounded.
  kSetConcurrencyCap,  // in u64: VPOOL per-replica outstanding-call cap
                       // (0 = uncapped, the default)
  kSetBreaker,         // in u64: packed min_volume<<32 | trip_ratio_ppm.
                       // VPOOL circuit breaker: trip a replica whose rejected/
                       // errored fraction over the window reaches the ratio
                       // once min_volume outcomes have been observed.
  kSetAvoidReplica,    // in u64: replica index the NEXT VPOOL pick must avoid
                       // (one-shot; consumed by the next push). Used by hedging.
  kGetLastPick,        // out u64: replica index chosen by the most recent push

  // --- load spreading (VPOOL) -------------------------------------------------
  kGetReplicasUp,      // out u64: replicas currently considered up

  // --- session lifecycle (idle eviction) ---------------------------------------
  // Handled generically by any session-owning protocol (UDP, CHANNEL, SELECT,
  // VIP, VPOOL); forwarded down the stack until one accepts, so each layer is
  // configured individually.
  kSetIdleTimeout,  // in u64: ns of inactivity before a session may be
                    // evicted (0 = disable; see Protocol idle-LRU)
  kGetIdleTimeout,  // out u64
  kEvictIdle,       // in u64: minimum idle ns (0 = every evictable session);
                    // out u64: sessions evicted now
};

// In/out argument block for Control. Opcodes document which slots they use;
// unused slots are ignored. This stands in for the x-kernel's
// (opcode, buffer, length) convention with type safety.
struct ControlArgs {
  uint64_t u64 = 0;
  IpAddr ip{};
  IpAddr ip2{};
  EthAddr eth{};
};

}  // namespace xk

#endif  // XK_SRC_CORE_CONTROL_H_
