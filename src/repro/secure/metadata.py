"""Security-metadata wire accounting.

Single place that decides how many metadata bytes ride on each message and
which messages trigger replay-protection ACKs, for both the conventional
per-message protocol (§II-C) and the batched protocol (§IV-C).  The
``count_metadata`` switch supports Fig. 11's "+SecureCommu" configuration:
security latencies apply but metadata occupies no link bandwidth.
"""

from __future__ import annotations

from repro.configs import MetadataConfig
from repro.interconnect.packet import Packet, PacketKind

#: Message kinds that carry a data payload and therefore get ACKed for
#: replay protection (read requests are implicitly covered by their
#: responses; ACK kinds are never themselves ACKed).
ACKED_KINDS = frozenset(k for k in PacketKind if k.carries_data)

#: Data kinds eligible for metadata batching (the paper batches data
#: responses and page-migration streams; writes stay conventional).
BATCHABLE_KINDS = frozenset(k for k in PacketKind if k.batchable)


class MetadataAccountant:
    """Computes metadata sizes under the active configuration."""

    def __init__(self, metadata: MetadataConfig, count_metadata: bool = True) -> None:
        self.metadata = metadata
        self.count_metadata = count_metadata

    def _sized(self, nbytes: int) -> int:
        return nbytes if self.count_metadata else 0

    def conventional_meta(self, packet: Packet) -> int:
        """MsgCTR + MsgMAC + senderID on every secured message."""
        del packet  # same for all kinds in the conventional protocol
        return self._sized(self.metadata.per_message_meta_bytes)

    def batched_block_meta(self, opens_batch: bool, closes_batch: bool) -> int:
        """Per-block metadata when batching: CTR + ID (+len, +batch MAC)."""
        meta = self.metadata.batched_block_meta_bytes
        if opens_batch:
            meta += self.metadata.batch_len_bytes
        if closes_batch:
            meta += self.metadata.msg_mac_bytes
        return self._sized(meta)

    def eager_block_mac_bytes(self) -> int:
        """Per-block MsgMAC retained under fault-hardened batching.

        Lazy batched verification trades detection latency for bandwidth —
        acceptable on a clean channel, but an actively faulty link needs
        corruption caught *before* the block leaves the verified window.
        When fault injection is enabled the batched protocol therefore
        keeps the per-block MsgMAC on the wire (batch ACKs and counter
        compression still apply), and this is its cost.
        """
        return self._sized(self.metadata.msg_mac_bytes)

    def ack_packet_size(self) -> int:
        """Wire size of a replay-protection ACK (always >= 1 so the link
        model can serialize it even when metadata is not counted)."""
        return max(1, self._sized(self.metadata.ack_bytes))

    def standalone_batch_mac_size(self) -> int:
        """Timeout-closed batches ship their MAC in a tiny packet."""
        return max(
            1,
            self._sized(
                self.metadata.msg_mac_bytes + self.metadata.sender_id_bytes + 1
            ),
        )

    @staticmethod
    def needs_ack(kind: PacketKind) -> bool:
        return kind.carries_data

    @staticmethod
    def batchable(kind: PacketKind) -> bool:
        return kind.batchable


__all__ = ["MetadataAccountant", "ACKED_KINDS", "BATCHABLE_KINDS"]
