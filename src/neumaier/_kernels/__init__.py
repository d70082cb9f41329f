from ._slow import KERNEL_KIND, charpoly_adj, cluster_count, jacobi_eigenvalues, sweep_masks
