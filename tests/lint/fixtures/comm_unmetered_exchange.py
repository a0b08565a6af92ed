# lint-fixture-module: repro.baselines.fixture
"""Client payloads collected with vs. without a channel call."""

PUBLIC_X = "public_x"


class Leaky:
    def client_work(self, participants, snapshot):
        logits = self.map_clients(participants, "logits_on", {"x": PUBLIC_X})  # BAD
        return logits

    def grab_weights(self, client):
        return client.model.state_dict()  # BAD


class Metered:
    def client_work(self, participants, snapshot):
        logits = self.map_clients(participants, "logits_on", {"x": PUBLIC_X})
        for client, client_logits in zip(participants, logits):
            self.channel.upload(client.client_id, {"logits": client_logits})
        return logits

    def local_only(self, participants):
        self.map_clients(participants, "train_local", {})
